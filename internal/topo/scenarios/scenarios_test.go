package scenarios_test

import (
	"fmt"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
	_ "repro/internal/topo/scenarios"
)

// TestScenarioHeadlines measures every registered scenario's catalog
// number instead of quoting it: a 12 s seed-1 run with a 2 s warm-up on a
// fresh arena must render to exactly the scenario's Headline, the string
// the generated EXPERIMENTS.md catalog prints.
func TestScenarioHeadlines(t *testing.T) {
	t.Parallel()
	for _, sc := range topo.Scenarios() {
		res, err := sc.RunIn(topo.ScenarioConfig{
			Seed:     1,
			Duration: 12 * sim.Second,
			Warmup:   2 * sim.Second,
		}, nil)
		if err != nil {
			t.Errorf("%s: %v", sc.Name, err)
			continue
		}
		r := res.Report
		got := fmt.Sprintf("frac < 0.01 RTT ≈ %.2f, CoV ≈ %.0f", r.FracBelow001, r.CoV)
		if got != sc.Headline {
			t.Errorf("%s: measured %q, Headline says %q", sc.Name, got, sc.Headline)
		}
	}
}
