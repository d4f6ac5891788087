package core

import (
	"fmt"
	"strings"

	"repro/internal/exp"
	"repro/internal/topo"

	// Populate the scenario registry: every catalog entry becomes
	// runnable through RunScenario and `paperexp -scenario`.
	_ "repro/internal/topo/scenarios"
)

// lookupScenario finds a registered scenario; an unknown name returns an
// error listing the available ones.
func lookupScenario(name string) (topo.Scenario, error) {
	sc, ok := topo.Lookup(name)
	if !ok {
		return sc, fmt.Errorf("core: unknown scenario %q (registered: %s)",
			name, strings.Join(topo.Names(), ", "))
	}
	return sc, nil
}

// RunScenario executes one registered topology scenario by name on a
// fresh arena, so the result carries the raw trace.
func RunScenario(name string, cfg topo.ScenarioConfig) (*ScenarioResult, error) {
	sc, err := lookupScenario(name)
	if err != nil {
		return nil, err
	}
	return sc.RunIn(cfg, nil)
}

// SweepScenario replicates a registered scenario across derived seeds,
// exactly like SweepFigure2 replicates the NS-2 figure: replication 0
// replays cfg.Seed, later replications draw SubSeed streams, and the
// result is bit-identical for any worker count. Replications run on
// per-worker arenas, analyzing losses online without retaining traces.
func SweepScenario(name string, cfg topo.ScenarioConfig, opts SweepOptions) (*ScenarioSweep, error) {
	sc, err := lookupScenario(name)
	if err != nil {
		return nil, err
	}
	opts.fillDefaults()
	results := exp.Replicate(exp.Options{Seed: cfg.Seed, Workers: opts.Workers},
		opts.Replications, func(i int, seed int64, a *exp.Arena) (*ScenarioResult, error) {
			c := cfg
			c.Seed = replicationSeed(cfg.Seed, i, seed)
			return sc.RunIn(c, a)
		})
	return collectScenarioSweep(cfg.Seed, results)
}
