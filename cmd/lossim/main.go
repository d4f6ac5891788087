// Command lossim runs a packet-level loss-trace scenario (the paper's NS-2
// or Dummynet setup) and writes the bottleneck drop trace as CSV to stdout
// or a file. Analyze the trace with cmd/lossstat.
//
// Usage:
//
//	lossim -env ns2 -flows 16 -duration 60s -seed 1 -o trace.csv
//	lossim -env dummynet -flows-per-class 4 -duration 60s
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sim"
)

// maxFlows caps -flows and -flows-per-class. Each flow is a source, a sink
// and their per-packet state in the one simulated world, so the flag sizes
// the run; 4096 is two orders of magnitude above any figure's flow count.
const maxFlows = 4096

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("lossim", stderr)
	var (
		env      = fs.String("env", "ns2", "environment: ns2 (Figure 2) or dummynet (Figure 3)")
		flows    = fs.Int("flows", 16, fmt.Sprintf("TCP flows (ns2 only), in [1, %d]", maxFlows))
		perClass = fs.Int("flows-per-class", 4, fmt.Sprintf("flows per RTT class (dummynet only), in [1, %d]", maxFlows))
		duration = fs.Duration("duration", 60*time.Second, "simulated duration")
		warmup   = fs.Duration("warmup", 10*time.Second, "warmup excluded from the trace, in (0, duration)")
		buffer   = fs.Float64("buffer-bdp", 0.5, "bottleneck buffer as a fraction of BDP, > 0 (paper sweeps 1/8..2)")
		noise    = fs.Float64("noise", 0.10, "on-off noise load as a fraction of capacity, in (0, 1]")
		seed     = fs.Int64("seed", 1, "experiment seed")
		out      = fs.String("o", "-", "output file for the CSV trace ('-' = stdout)")
		summary  = fs.Bool("summary", true, "print the burstiness summary to stderr")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	if *env != "ns2" && *env != "dummynet" {
		return cli.Usagef(stderr, "lossim", "unknown -env %q (want ns2 or dummynet)", *env)
	}
	// Each environment reads only its own flow-count flag; the other one,
	// set even to its default value, would be silently ignored.
	other := "flows-per-class"
	if *env == "dummynet" {
		other = "flows"
	}
	set := false
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == other })
	if set {
		return cli.Usagef(stderr, "lossim", "-%s does not apply to -env %s", other, *env)
	}
	if *flows < 1 || *flows > maxFlows {
		return cli.Usagef(stderr, "lossim", "-flows must be in [1, %d], got %d", maxFlows, *flows)
	}
	if *perClass < 1 || *perClass > maxFlows {
		return cli.Usagef(stderr, "lossim", "-flows-per-class must be in [1, %d], got %d", maxFlows, *perClass)
	}
	if *duration <= 0 {
		return cli.Usagef(stderr, "lossim", "-duration must be positive, got %v", *duration)
	}
	// Zero would read as "use the default" further down, so the ranges
	// exclude it rather than let a 0 silently become 10 s, 0.1 or 0.5.
	if *warmup <= 0 || *warmup >= *duration {
		return cli.Usagef(stderr, "lossim", "-warmup %v must lie in (0, duration)", *warmup)
	}
	if !(*noise > 0 && *noise <= 1) {
		return cli.Usagef(stderr, "lossim", "-noise %v must lie in (0, 1]", *noise)
	}
	if !(*buffer > 0) || math.IsInf(*buffer, 1) {
		return cli.Usagef(stderr, "lossim", "-buffer-bdp %v must be positive and finite", *buffer)
	}

	var w io.Writer = stdout
	var f *os.File
	if *out != "-" {
		var err error
		if f, err = os.Create(*out); err != nil {
			return cli.Failf(stderr, "lossim", "%v", err)
		}
		// Closes the file on the error paths; the success path checks
		// Close itself, since a write may fail only there.
		defer f.Close()
		w = f
	}

	var res *core.ScenarioResult
	var err error
	if *env == "ns2" {
		res, err = core.RunFigure2(core.Fig2Config{
			Seed:          *seed,
			Flows:         *flows,
			BufferBDPFrac: *buffer,
			NoiseFraction: *noise,
			Duration:      sim.Dur(*duration),
			Warmup:        sim.Dur(*warmup),
		})
	} else {
		res, err = core.RunFigure3(core.Fig3Config{
			Seed:          *seed,
			FlowsPerClass: *perClass,
			BufferBDPFrac: *buffer,
			NoiseFraction: *noise,
			Duration:      sim.Dur(*duration),
			Warmup:        sim.Dur(*warmup),
		})
	}
	if err != nil {
		return cli.Failf(stderr, "lossim", "%v", err)
	}
	if err := res.Trace.WriteCSV(w); err != nil {
		return cli.Failf(stderr, "lossim", "%v", err)
	}
	if f != nil {
		if err := f.Close(); err != nil {
			return cli.Failf(stderr, "lossim", "%v", err)
		}
	}
	if *summary {
		r := res.Report
		fmt.Fprintf(stderr,
			"env=%s drops=%d mean_rtt=%v lambda=%.2f/RTT frac<0.01RTT=%.3f frac<1RTT=%.3f CoV=%.1f IoD=%.1f\n",
			*env, res.Drops, res.MeanRTT, r.Lambda, r.FracBelow001, r.FracBelow1,
			r.CoV, r.IndexOfDispersion)
	}
	return 0
}
