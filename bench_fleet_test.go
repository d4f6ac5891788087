package repro_test

import (
	"runtime"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// BenchmarkFleetSecond runs a small fleet campaign end to end — four
// jittered dumbbell worlds merged through the turnstile aggregator — and
// reports the aggregate simulated-event throughput. It runs on one shard so
// the measurement is the engine, not the host's core count. Its allocs/op
// is near-exact, not bit-exact: the arena pool is drained to the same empty
// state before every iteration, but world construction builds routing
// tables and out-of-order maps whose overflow-bucket counts depend on
// per-map hash seeds (±~0.2% in practice). The merge path itself is held to
// zero through steadyFleetMerge below.
func BenchmarkFleetSecond(b *testing.B) {
	b.ReportAllocs()
	cfg := core.FleetConfig{
		Scenarios: []string{"dumbbell"},
		Worlds:    4,
		Seed:      7,
		Duration:  3 * sim.Second,
		Warmup:    1 * sim.Second,
		RateSpan:  0.2,
		RTTSpan:   0.3,
		Shards:    1,
	}
	// Warm the process-wide state (timing wheel sizing, registry, pool
	// internals) outside the measurement.
	if _, err := core.RunFleet(cfg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// Two GC cycles empty the sync.Pool arena cache (current + victim),
		// so every iteration rebuilds its arena from the same blank slate
		// and allocs/op is exact rather than hostage to GC timing.
		runtime.GC()
		runtime.GC()
		b.StartTimer()
		rep, err := core.RunFleet(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Worlds != cfg.Worlds {
			b.Fatalf("merged %d of %d worlds", rep.Worlds, cfg.Worlds)
		}
		b.ReportMetric(float64(rep.Events), "events")
		b.ReportMetric(rep.EventsPerSec, "events_per_sec")
	}
}

// BenchmarkFleetMerge measures the cross-world merge path alone: one
// Aggregate.Absorb per op — histogram, Welford-moment, dispersion-window
// and reservoir merges over a finished per-world analyzer. This is the
// work the fleet turnstile serializes, so it bounds fleet scalability,
// and it must stay allocation-free in steady state (the aggregate's
// reservoir is pre-filled to its bound below, after which replacement
// draws happen in place).
func BenchmarkFleetMerge(b *testing.B) { benchSteady(b, steadyFleetMerge) }

func steadyFleetMerge(tb testing.TB) func() {
	cfg := analysis.Config{KSReservoir: 1024}
	world, err := analysis.NewStreaming(100*sim.Millisecond, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	// One finished world: a bursty synthetic loss stream, 2k events.
	at := sim.Time(0)
	for burst := 0; burst < 500; burst++ {
		at = at.Add(sim.Duration(burst%7+1) * 40 * sim.Millisecond)
		for k := 0; k < 4; k++ {
			at = at.Add(300 * sim.Microsecond)
			world.Observe(trace.LossEvent{At: at, Flow: k, Seq: int64(burst*4 + k)})
		}
	}
	agg := analysis.NewAggregate(cfg)
	absorb := func() {
		if err := agg.Absorb(world); err != nil {
			tb.Fatal(err)
		}
	}
	// Fill the merged reservoir past its bound so the op is the steady
	// state: in-place replacement draws, no growth.
	for agg.KSExact() {
		absorb()
	}
	if agg.N() == 0 {
		tb.Fatal("aggregate absorbed nothing")
	}
	return absorb
}
