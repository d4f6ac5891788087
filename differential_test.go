package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// diffConfig deliberately differs from the golden config (seed and
// duration) so the differential sweep and the goldens pin the batched port
// on independent trajectories.
var diffConfig = topo.ScenarioConfig{
	Seed:     11,
	Duration: 6 * sim.Second,
	Warmup:   1500 * sim.Millisecond,
}

// runScenarioWithPath replays one registered scenario with the port
// implementation pinned to the naive reference or the batched hot path.
// Scenario.Run builds a fresh world (no arena), so the NaivePortPath
// snapshot in NewPort is taken under the flag set here — a differential
// across the flag must never run through the compiled-topology cache,
// which would hand back ports built under the previous flag value.
func runScenarioWithPath(t *testing.T, name string, naive bool) *core.ScenarioResult {
	t.Helper()
	defer func(old bool) { netsim.NaivePortPath = old }(netsim.NaivePortPath)
	netsim.NaivePortPath = naive
	res, err := runScenario(name, diffConfig)
	if err != nil {
		t.Fatalf("scenario %q, naive=%v: %v", name, naive, err)
	}
	return res
}

// TestScenarioDifferential pins the batched port path (delivery rings,
// serialization chains, arming-instant tie-breaks) to the naive
// two-events-per-packet reference across every registered scenario —
// multi-hop chains, RED bottlenecks, Gilbert-Elliott wire-loss bursts and
// mid-chain modulator retunes included. The loss traces must match drop
// for drop at nanosecond resolution: same packets, same timestamps, same
// order. This is a stronger statement than the goldens (which pin one
// configuration) because it holds the two implementations to each other on
// a second, independent trajectory.
func TestScenarioDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential sweep replays every scenario twice")
	}
	for _, name := range topo.Names() {
		t.Run(name, func(t *testing.T) {
			want := runScenarioWithPath(t, name, true)
			got := runScenarioWithPath(t, name, false)
			if want.Drops != got.Drops {
				t.Fatalf("drop count diverged: naive %d, batched %d", want.Drops, got.Drops)
			}
			we, ge := want.Trace.Events(), got.Trace.Events()
			for i := range we {
				if i >= len(ge) || we[i] != ge[i] {
					g := "missing"
					if i < len(ge) {
						g = fmt.Sprintf("%+v", ge[i])
					}
					t.Fatalf("drop %d diverged: naive %+v, batched %s", i, we[i], g)
				}
			}
			if len(ge) > len(we) {
				t.Fatalf("batched recorded %d extra drops", len(ge)-len(we))
			}
			if want.Bursts != got.Bursts {
				t.Fatalf("burst stats diverged: naive %+v, batched %+v", want.Bursts, got.Bursts)
			}
			if got.Events >= want.Events {
				t.Errorf("batched path fired %d events, naive %d: batching saved nothing",
					got.Events, want.Events)
			}
		})
	}
}
