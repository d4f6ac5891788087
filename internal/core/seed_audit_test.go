package core

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// seedBlind lists the runs known to ignore their seed, each with the
// reason. A run on it must still be seed-blind, so the list cannot outlive
// the fix that gives the run a seed.
var seedBlind = map[string]string{
	"figure7": "ROADMAP.md item 12: the pacing competition has equal delays and no noise, so nothing draws from the seed",
	"tfrc":    "ROADMAP.md item 12: the TFRC competition is built like Figure 7's and draws nothing from the seed either",
}

// TestSeedAudit runs every registered scenario (short, nominal scale) and
// every reduced-scale run of dumbbellRuns at two seeds, and fails when a
// run's folded outputs are identical at both: a world that ignores its
// seed makes replications copies of one run and their confidence
// intervals zero-width. Runs on seedBlind must instead be identical.
func TestSeedAudit(t *testing.T) {
	type audited struct {
		name string
		fold func(f *folder, seed int64) error
	}
	var runs []audited
	for _, sc := range topo.Scenarios() {
		runs = append(runs, audited{"scenario/" + sc.Name, func(f *folder, seed int64) error {
			return f.result(sc.RunIn(topo.ScenarioConfig{Seed: seed,
				Duration: 4 * sim.Second, Warmup: sim.Second}, nil))
		}})
	}
	for _, r := range dumbbellRuns() {
		runs = append(runs, audited{r.name, r.fold})
	}
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			var sums [2]uint64
			for i, seed := range []int64{1, 2} {
				f := newFolder()
				if err := r.fold(f, seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				sums[i] = f.h.Sum64()
			}
			why, blind := seedBlind[r.name]
			switch {
			case sums[0] == sums[1] && !blind:
				t.Errorf("%s: seeds 1 and 2 give identical outputs (%#016x)", r.name, sums[0])
			case sums[0] != sums[1] && blind:
				t.Errorf("%s now depends on its seed; drop it from seedBlind (%s)", r.name, why)
			}
		})
	}
}
