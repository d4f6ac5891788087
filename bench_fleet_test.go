package repro_test

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/sim"
	"repro/internal/trace"
)

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
