package apps

import (
	"reflect"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// TestParallelZeroFlowsDefaults pins the zero-value semantics: Flows: 0
// means "the default fan-out", not an empty transfer — the run completes
// with the default four per-flow completion times.
func TestParallelZeroFlowsDefaults(t *testing.T) {
	r := RunParallel(ParallelConfig{
		TotalBytes:     1 << 20,
		RTT:            10 * sim.Millisecond,
		BottleneckRate: 100_000_000,
	}, nil)
	if !r.Finished {
		t.Fatal("defaulted run did not finish")
	}
	if len(r.PerFlow) != 4 {
		t.Fatalf("per-flow entries = %d, want the default 4", len(r.PerFlow))
	}
	for i, d := range r.PerFlow {
		if d <= 0 {
			t.Fatalf("flow %d completion %v not positive", i, d)
		}
	}
}

// TestParallelMixedTimeoutArenaReuse interleaves finished and
// timeout-clamped transfers on one arena: a run that halts early via the
// completion closure, a run the timeout aborts with every flow still
// incomplete, and a normal run after it must each reproduce their
// fresh-arena results exactly. This pins the lifecycle edge the plain
// reuse test misses — a timed-out world is rewound mid-transfer, with
// flows holding unfinished state, and the next reset must erase all of it.
func TestParallelMixedTimeoutArenaReuse(t *testing.T) {
	base := ParallelConfig{
		TotalBytes:     1 << 20,
		Flows:          4,
		RTT:            10 * sim.Millisecond,
		BottleneckRate: 100_000_000,
	}
	clamped := base
	clamped.Timeout = 5 * sim.Millisecond // under one RTT: nothing can finish
	cfgs := []ParallelConfig{base, clamped, base, clamped, base}

	want := make([]ParallelResult, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = RunParallel(cfg, exp.NewArena())
	}
	if want[1].Finished || want[1].Completion != clamped.Timeout {
		t.Fatalf("clamped reference not clamped: %+v", want[1])
	}
	if !want[0].Finished || !want[2].Finished {
		t.Fatal("reference runs did not finish; the mix exercises nothing")
	}

	a := exp.NewArena()
	for i, cfg := range cfgs {
		got := RunParallel(cfg, a)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("run %d (timeout %v) diverged on the reused arena:\nfresh:  %+v\nreused: %+v",
				i, cfg.Timeout, want[i], got)
		}
	}
}
