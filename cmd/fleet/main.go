// Command fleet runs a fleet-scale campaign: thousands of seed- and
// parameter-jittered instances of the registered scenario catalog, run
// across every core on recycled arenas and merged into one bounded
// burstiness aggregate (see EXPERIMENTS.md, "Fleet-scale methodology").
// Memory stays bounded no matter how many worlds run, and every number
// except the wall clock is independent of -shards.
//
// Usage:
//
//	fleet -worlds 256                        # the whole catalog, jittered
//	fleet -worlds 64 -scenario dumbbell      # one topology
//	fleet -worlds 16000 -scenario dumbbell -duration 3s -warmup 1s
//	                                         # a million flows (66/world), minutes on one box
//	fleet -worlds 64 -shards 1               # sequential (identical report)
package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("fleet", stderr)
	var (
		worlds   = fs.Int("worlds", 256, "fleet size (number of simulated worlds)")
		scenario = fs.String("scenario", "all", "scenarios to cycle through, comma-separated; \"all\" = the catalog, \"list\" prints it")
		duration = fs.Duration("duration", 60*time.Second, "per-world simulated duration")
		warmup   = fs.Duration("warmup", 10*time.Second, "per-world warmup excluded from analysis")
		seed     = fs.Int64("seed", 1, "fleet base seed (world i runs SubSeed(seed, i))")
		rateSpan = fs.Float64("rate-span", 0.2, "link-rate jitter: scales drawn from [1-f, 1+f) per world (0 disables)")
		rttSpan  = fs.Float64("rtt-span", 0.3, "propagation-delay jitter span (0 disables)")
		lossSpan = fs.Float64("loss-span", 0.0, "wire-loss burst-rate jitter span (0 disables)")
		shards   = fs.Int("shards", 0, "concurrent workers (0 = GOMAXPROCS, 1 = sequential); never changes the report")
		fp       = fs.Bool("fingerprint", false, "also print the deterministic report fingerprint (shard-invariance check)")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	if *scenario == "list" {
		for _, sc := range topo.Scenarios() {
			fmt.Fprintf(stdout, "%-16s %s\n", sc.Name, sc.Description)
		}
		return 0
	}
	if *worlds < 1 {
		return cli.Usagef(stderr, "fleet", "-worlds must be at least 1, got %d", *worlds)
	}
	if *duration <= 0 {
		return cli.Usagef(stderr, "fleet", "-duration must be positive, got %v", *duration)
	}
	if *warmup < 0 || *warmup >= *duration {
		return cli.Usagef(stderr, "fleet", "-warmup %v must lie in [0, duration)", *warmup)
	}
	for _, s := range []struct {
		name string
		v    float64
	}{{"-rate-span", *rateSpan}, {"-rtt-span", *rttSpan}, {"-loss-span", *lossSpan}} {
		if !(s.v >= 0 && s.v < 1) { // NaN fails too
			return cli.Usagef(stderr, "fleet", "%s must lie in [0, 1), got %v", s.name, s.v)
		}
	}
	if *shards < 0 {
		return cli.Usagef(stderr, "fleet", "-shards must not be negative, got %d", *shards)
	}
	var names []string
	if *scenario != "all" {
		names = strings.Split(*scenario, ",")
	}

	rep, err := core.RunFleet(core.FleetConfig{
		Scenarios: names,
		Worlds:    *worlds,
		Seed:      *seed,
		Duration:  sim.Dur(*duration),
		Warmup:    sim.Dur(*warmup),
		RateSpan:  *rateSpan,
		RTTSpan:   *rttSpan,
		LossSpan:  *lossSpan,
		Shards:    *shards,
	})
	if err != nil {
		return cli.Failf(stderr, "fleet", "%v", err)
	}
	if err := core.WriteFleet(stdout, rep); err != nil {
		return cli.Failf(stderr, "fleet", "%v", err)
	}
	if *fp {
		if _, err := io.WriteString(stdout, rep.Fingerprint()); err != nil {
			return cli.Failf(stderr, "fleet", "%v", err)
		}
	}
	return 0
}
