package topo

import (
	"reflect"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func jitterSpec() Spec {
	return Spec{
		Name:  "jitter",
		Nodes: []NodeSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
		Links: []LinkSpec{
			{
				A: "a", B: "b",
				AB: Dir{
					Rate:  10_000_000,
					Delay: 20 * sim.Millisecond,
					Queue: QueueSpec{Limit: 50},
					Dynamics: &DynamicsSpec{
						Steps: []netsim.RateStep{
							{At: 0, Rate: 10_000_000},
							{At: 5 * sim.Second, Rate: 4_000_000, Delay: 30 * sim.Millisecond},
							{At: 8 * sim.Second}, // zero fields keep current values
						},
						Loop: 10 * sim.Second,
					},
					Loss: &LossSpec{PGB: 0.01, PBG: 0.3, KGood: 0.001, KBad: 0.5},
				},
				// BA zero: mirrors AB.
			},
			{
				A: "b", B: "c",
				AB: Dir{
					Rate:  30_000_000,
					Delay: 5 * sim.Millisecond,
					Dynamics: &DynamicsSpec{
						Walk: &WalkSpec{
							Min: 8_000_000, Max: 30_000_000,
							Factor: 1.2, Interval: 100 * sim.Millisecond,
						},
					},
				},
				BA: Dir{
					Rate:  16_000_000,
					Delay: 40 * sim.Millisecond,
					Dynamics: &DynamicsSpec{
						Walk: &WalkSpec{
							Min: 2_000_000, Max: 16_000_000,
							Factor: 1.3, Interval: 200 * sim.Millisecond,
						},
					},
				},
			},
		},
		Flows: []FlowSpec{{From: "a", To: "c"}},
	}
}

// TestScaleSpecNominalIsIdentity pins the exact no-op contract: all-nominal
// scales return the input Spec unchanged, sharing the same Links backing
// array (no copy, no float round trip).
func TestScaleSpecNominalIsIdentity(t *testing.T) {
	spec := jitterSpec()
	out := ScaleSpec(spec, 1, 1, 1)
	if !reflect.DeepEqual(out, spec) {
		t.Fatal("nominal ScaleSpec changed the spec")
	}
	if &out.Links[0] != &spec.Links[0] {
		t.Fatal("nominal ScaleSpec copied the links slice")
	}
	if out.Links[0].AB.Dynamics != spec.Links[0].AB.Dynamics {
		t.Fatal("nominal ScaleSpec copied a dynamics program")
	}

	cfg := ScenarioConfig{}
	r, rt, l := cfg.EffScales()
	if r != 1 || rt != 1 || l != 1 {
		t.Fatalf("zero config scales = %v/%v/%v, want 1/1/1", r, rt, l)
	}
}

// TestScaleSpecScalesParametrics pins what jitter touches: rates (incl.
// dynamics schedules and bounds) by rate, delays by rtt, the GE Good→Bad
// entry by loss — and what it must not: queue limits, step offsets, loop
// period, the loss chain's dwell parameters, zero mirror directions.
func TestScaleSpecScalesParametrics(t *testing.T) {
	spec := jitterSpec()
	out := ScaleSpec(spec, 0.5, 2, 3)

	ab := out.Links[0].AB
	if ab.Rate != 5_000_000 {
		t.Fatalf("rate = %d, want 5000000", ab.Rate)
	}
	if ab.Delay != 40*sim.Millisecond {
		t.Fatalf("delay = %v, want 40ms", ab.Delay)
	}
	if ab.Queue.Limit != 50 {
		t.Fatalf("queue limit = %d, want untouched 50", ab.Queue.Limit)
	}
	steps := ab.Dynamics.Steps
	if steps[1].Rate != 2_000_000 || steps[1].Delay != 60*sim.Millisecond {
		t.Fatalf("step 1 = %+v, want rate 2000000 delay 60ms", steps[1])
	}
	if steps[1].At != 5*sim.Second || ab.Dynamics.Loop != 10*sim.Second {
		t.Fatal("step offsets / loop period must stay on the nominal clock")
	}
	if steps[2].Rate != 0 || steps[2].Delay != 0 {
		t.Fatalf("zero step fields must stay zero (keep-current), got %+v", steps[2])
	}
	ls := ab.Loss
	if ls.PGB != 0.03 {
		t.Fatalf("PGB = %v, want 0.03", ls.PGB)
	}
	if ls.PBG != 0.3 || ls.KGood != 0.001 || ls.KBad != 0.5 {
		t.Fatalf("loss dwell/per-state params changed: %+v", *ls)
	}
	if out.Links[0].BA != (Dir{}) {
		t.Fatal("zero mirror direction must stay zero")
	}

	fwd := out.Links[1].AB.Dynamics.Walk
	if fwd.Min != 4_000_000 || fwd.Max != 15_000_000 {
		t.Fatalf("walk bounds = %d..%d, want 4000000..15000000", fwd.Min, fwd.Max)
	}
	if fwd.Factor != 1.2 || fwd.Interval != 100*sim.Millisecond {
		t.Fatal("walk factor and timing must stay nominal")
	}
	walk := out.Links[1].BA.Dynamics.Walk
	if walk.Min != 1_000_000 || walk.Max != 8_000_000 {
		t.Fatalf("walk bounds = %d..%d, want 1000000..8000000", walk.Min, walk.Max)
	}

	// Saturation: probabilities clamp at 1, rates at 1 bit/s.
	if p := scaleProb(0.6, 3); p != 1 {
		t.Fatalf("scaleProb(0.6, 3) = %v, want clamp to 1", p)
	}
	if r := ScaleRate(10, 0.001); r != 1 {
		t.Fatalf("ScaleRate(10, 0.001) = %d, want clamp to 1", r)
	}
}

// TestScaleSpecDoesNotMutateInput pins the deep copy: the caller's spec —
// including nested dynamics and loss programs — is untouched, so cached
// package-level specs survive jittered runs.
func TestScaleSpecDoesNotMutateInput(t *testing.T) {
	spec := jitterSpec()
	want := jitterSpec()
	out := ScaleSpec(spec, 1.5, 0.5, 2)
	if !reflect.DeepEqual(spec, want) {
		t.Fatal("ScaleSpec mutated its input spec")
	}
	if out.Links[0].AB.Dynamics == spec.Links[0].AB.Dynamics {
		t.Fatal("scaled spec aliases the input's dynamics program")
	}
	if out.Links[0].AB.Loss == spec.Links[0].AB.Loss {
		t.Fatal("scaled spec aliases the input's loss program")
	}
}
