package core

import (
	"errors"
	"runtime"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/topo"
)

// fleetTestConfig is a small-but-real campaign: two scenarios, jitter on
// every dimension, worlds short enough to keep the test fast.
func fleetTestConfig(worlds int) FleetConfig {
	return FleetConfig{
		Scenarios: []string{"dumbbell", "access-tree"},
		Worlds:    worlds,
		Seed:      7,
		Duration:  8 * sim.Second,
		Warmup:    2 * sim.Second,
		RateSpan:  0.2,
		RTTSpan:   0.3,
		LossSpan:  0.5,
	}
}

// TestFleetShardInvariance pins the tentpole determinism claim: the same
// campaign produces a byte-identical fingerprint whether it runs on 1, 4
// or 16 shards — merges always happen in world order, so even the
// order-sensitive statistics (reservoir, float accumulation) agree.
func TestFleetShardInvariance(t *testing.T) {
	var want string
	for _, shards := range []int{1, 4, 16} {
		cfg := fleetTestConfig(10)
		cfg.Shards = shards
		rep, err := RunFleet(cfg)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		fp := rep.Fingerprint()
		if shards == 1 {
			want = fp
			if rep.Worlds == 0 || rep.Drops == 0 || rep.Flows == 0 {
				t.Fatalf("degenerate fleet: %+v", rep)
			}
			if rep.Aggregate.CoV <= 1 {
				t.Errorf("pooled CoV = %v, want the paper's >1 burstiness", rep.Aggregate.CoV)
			}
			if rep.CoVMin > rep.Aggregate.CoV || rep.CoVMax < rep.Aggregate.CoV {
				// Not a theorem, but with these worlds the pooled CoV sits
				// inside the per-world range; a violation means the merge
				// mixed up its moments.
				t.Errorf("pooled CoV %v outside per-world range [%v, %v]",
					rep.Aggregate.CoV, rep.CoVMin, rep.CoVMax)
			}
		} else if fp != want {
			t.Errorf("shards=%d fingerprint differs from sequential:\n%s\nvs\n%s", shards, fp, want)
		}
	}
}

// TestFleetJitterChangesWorlds pins that the spans do something: the same
// fleet with jitter disabled produces a different drop total. (With all
// spans zero every config is golden-nominal, so this also exercises the
// exact no-op path under the fleet driver.)
func TestFleetJitterChangesWorlds(t *testing.T) {
	jittered, err := RunFleet(fleetTestConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	cfg := fleetTestConfig(4)
	cfg.RateSpan, cfg.RTTSpan, cfg.LossSpan = 0, 0, 0
	nominal, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if jittered.Fingerprint() == nominal.Fingerprint() {
		t.Fatal("jitter spans had no effect on the fleet")
	}
}

// TestFleetBoundedMemory pins the memory contract: the live heap after a
// fleet does not grow with the world count, because each world's analyzer
// is absorbed into the bounded aggregate before its arena is recycled. An
// 8x bigger fleet must not retain measurably more than a small one.
func TestFleetBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second fleets")
	}
	heapAfter := func(worlds int) uint64 {
		cfg := fleetTestConfig(worlds)
		cfg.Shards = 2
		rep, err := RunFleet(cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(rep)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	small := heapAfter(4)
	big := heapAfter(32)
	// Generous slack: arenas/pools grow with shard count and warmup, not
	// world count; 16 MiB of drift is still an order of magnitude below
	// what retaining 28 extra worlds' analyzers would cost.
	const slack = 16 << 20
	if big > small+slack {
		t.Fatalf("heap grew with fleet size: %d worlds → %d B, %d worlds → %d B",
			4, small, 32, big)
	}
}

// TestFleetAllWorldsSkipped pins the all-quiet error path: worlds whose
// run ends before the warmup produce no analyzable drops, each counts as
// skipped, and a fleet with nothing absorbed reports why.
func TestFleetAllWorldsSkipped(t *testing.T) {
	cfg := FleetConfig{
		Scenarios: []string{"dumbbell"},
		Worlds:    3,
		Duration:  200 * sim.Millisecond, // ends before the default 10 s warmup
	}
	_, err := RunFleet(cfg)
	if err == nil || !strings.Contains(err.Error(), "every fleet world was skipped") {
		t.Fatalf("err = %v, want the all-skipped diagnosis", err)
	}
	if !errors.Is(err, topo.ErrTooFewDrops) {
		t.Fatalf("err = %v, want it to wrap topo.ErrTooFewDrops", err)
	}
}

// TestFleetSkipCauses pins the skip tally: a too-quiet world, a world
// that panics and a world that fails some other way each count under
// their own cause, the breakdown is printed on the header, and it stays
// out of the fingerprint.
func TestFleetSkipCauses(t *testing.T) {
	t.Parallel()
	cfg := fleetTestConfig(2)
	rep, err := RunFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped != 0 {
		t.Fatalf("reference fleet skipped %d worlds: %v", rep.Skipped, rep.SkipSamples)
	}
	fingerprint := rep.Fingerprint()

	_, quiet := topo.NewWorld(nil, 0).Finish("quiet", sim.Second, sim.Millisecond)
	_, panicked := runWorld(topo.Scenario{RunIn: func(topo.ScenarioConfig, *exp.Arena) (*topo.ScenarioResult, error) {
		panic("boom")
	}}, topo.ScenarioConfig{}, nil)
	if quiet == nil || panicked == nil || !strings.Contains(panicked.Error(), "boom") {
		t.Fatalf("setup: quiet = %v, panicked = %v", quiet, panicked)
	}
	for _, err := range []error{quiet, panicked, quiet, errors.New("some other failure")} {
		rep.countSkip(err)
	}
	if rep.Skipped != 4 || rep.SkippedTooFewDrops != 2 || rep.SkippedPanics != 1 || rep.SkippedOther != 1 {
		t.Fatalf("skipped=%d (too_few_drops=%d panics=%d other=%d), want 4 (2 1 1)",
			rep.Skipped, rep.SkippedTooFewDrops, rep.SkippedPanics, rep.SkippedOther)
	}
	var out strings.Builder
	if err := WriteFleet(&out, rep); err != nil {
		t.Fatal(err)
	}
	if want := "skipped=4 (too_few_drops=2 panics=1 other=1)"; !strings.Contains(out.String(), want) {
		t.Fatalf("header lacks %q:\n%s", want, out.String())
	}
	// Fingerprint carries the skip count (a skipped world changes the
	// aggregate) but not the diagnostic breakdown.
	rep.Skipped = 0
	if rep.Fingerprint() != fingerprint {
		t.Fatal("skip causes leaked into the fingerprint")
	}
}

// TestFleetConfigValidation pins the rejection of unusable configs.
func TestFleetConfigValidation(t *testing.T) {
	if _, err := RunFleet(FleetConfig{Worlds: -1}); err == nil {
		t.Error("negative world count accepted")
	}
	if _, err := RunFleet(FleetConfig{Worlds: 1, RateSpan: 1.0}); err == nil {
		t.Error("rate span 1.0 accepted (would allow zero-rate links)")
	}
	if _, err := RunFleet(FleetConfig{Worlds: 1, LossSpan: -0.1}); err == nil {
		t.Error("negative span accepted")
	}
	if _, err := RunFleet(FleetConfig{Worlds: 1, Scenarios: []string{"no-such"}}); err == nil ||
		!strings.Contains(err.Error(), "unknown scenario") {
		t.Errorf("unknown scenario: err = %v", err)
	}
}
