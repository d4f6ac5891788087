// Command lossprobe runs the PlanetLab-style measurement: CBR probes over
// directed paths of the synthetic 26-site mesh, with the paper's dual
// packet-size validation, and prints per-path results. Paths are measured
// concurrently through the internal/exp runner; the output order and
// every number are independent of the worker count.
//
// Usage:
//
//	lossprobe -paths 20 -duration 1m -seed 3
//	lossprobe -src 0 -dst 21 -duration 5m     # one specific path
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/exp"
	"repro/internal/planetlab"
	"repro/internal/probe"
	"repro/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("lossprobe", stderr)
	var (
		paths    = fs.Int("paths", 10, "number of random directed paths to measure")
		src      = fs.Int("src", -1, "source site index (measure one path)")
		dst      = fs.Int("dst", -1, "destination site index (measure one path)")
		duration = fs.Duration("duration", time.Minute, "per-run probe duration")
		interval = fs.Duration("interval", time.Millisecond, "probe interval")
		seed     = fs.Int64("seed", 1, "mesh/measurement seed")
		workers  = fs.Int("workers", 0, "concurrent path measurements (0 = GOMAXPROCS)")
		list     = fs.Bool("list", false, "list the 26 sites and exit")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	if *paths < 1 {
		return cli.Usagef(stderr, "lossprobe", "-paths must be at least 1, got %d", *paths)
	}
	if *duration <= 0 || *interval <= 0 {
		return cli.Usagef(stderr, "lossprobe", "-duration and -interval must be positive")
	}
	if *workers < 0 {
		return cli.Usagef(stderr, "lossprobe", "-workers must not be negative, got %d", *workers)
	}
	// -src and -dst name one path together; either one alone would
	// silently fall back to random paths.
	srcSet, dstSet := false, false
	fs.Visit(func(f *flag.Flag) {
		srcSet = srcSet || f.Name == "src"
		dstSet = dstSet || f.Name == "dst"
	})
	if srcSet != dstSet {
		return cli.Usagef(stderr, "lossprobe", "-src and -dst must be given together")
	}

	mesh := planetlab.NewMesh(*seed)
	if *list {
		for i, s := range mesh.Sites {
			fmt.Fprintf(stdout, "%2d  %-45s %s\n", i, s.Host, s.Location)
		}
		return 0
	}

	var pairs [][2]int
	if srcSet {
		if *src < 0 || *dst < 0 || *src == *dst || *src >= len(mesh.Sites) || *dst >= len(mesh.Sites) {
			return cli.Usagef(stderr, "lossprobe", "invalid site pair %d -> %d", *src, *dst)
		}
		pairs = [][2]int{{*src, *dst}}
	} else {
		pick := sim.NewRand(sim.SubSeed(*seed, 99))
		pairs = mesh.RandomPairs(pick, *paths)
	}

	fmt.Fprintln(stdout, "# src\tdst\trtt_ms\tvalid\tloss_small\tloss_large\tb2b_small\tlosses")
	// Each path is an independent simulated world: measure them in
	// parallel, print them in selection order.
	results := exp.Sweep(exp.Options{Seed: *seed, Workers: *workers}, pairs,
		func(r exp.Run[[2]int], a *exp.Arena) (string, error) {
			i, j := r.Config[0], r.Config[1]
			path := mesh.NewPathProcess(i, j)
			m := probe.MeasurePath(a.Scheduler(), path, probe.RunConfig{
				Interval: sim.Dur(*interval),
				Duration: sim.Dur(*duration),
			})
			return fmt.Sprintf("%d\t%d\t%.1f\t%v\t%.5f\t%.5f\t%.2f\t%d\n",
				i, j, path.Params.RTT.Seconds()*1e3, m.Valid,
				m.Small.LossRate(), m.Large.LossRate(),
				m.Small.BackToBackFraction(), len(m.Small.LossSendTimes)), nil
		})
	rows, err := exp.Values(results)
	if err != nil {
		return cli.Failf(stderr, "lossprobe", "%v", err)
	}
	for _, row := range rows {
		io.WriteString(stdout, row)
	}
	return 0
}
