package core

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/exp"
)

// SweepOptions controls a replicated figure run. Replication 0 replays
// the figure config's own Seed — a one-replication sweep is exactly the
// single run, and adding replications extends a figure rather than
// replacing it — while later replications receive independent
// sim.SubSeed-derived seeds. A sweep is a pure function of
// (config, Replications) — Workers only changes how fast it finishes,
// never what it returns.
type SweepOptions struct {
	// Replications is the number of independent runs (default 4).
	Replications int
	// Workers bounds concurrency; 0 means GOMAXPROCS, 1 is sequential.
	Workers int
}

func (o *SweepOptions) fillDefaults() {
	// Nonpositive counts take the default too: a negative value would
	// reach make() inside exp.Replicate and panic.
	if o.Replications < 1 {
		o.Replications = 4
	}
}

// replicate runs opts.Replications replications of run, each on its
// worker's arena: replication 0 replays seed, later replications receive
// the SubSeed-derived streams of the exp runner.
func replicate[T any](seed int64, opts SweepOptions, run func(seed int64, a *exp.Arena) (T, error)) []exp.Result[T] {
	opts.fillDefaults()
	return exp.Replicate(exp.Options{Seed: seed, Workers: opts.Workers}, opts.Replications,
		func(i int, derived int64, a *exp.Arena) (T, error) {
			return run(replicationSeed(seed, i, derived), a)
		})
}

// replicationSeed maps a replication index to its seed: replication 0
// replays the configured base seed, later replications use the
// SubSeed-derived stream handed in by the runner.
func replicationSeed(base int64, index int, derived int64) int64 {
	if index == 0 {
		return base
	}
	return derived
}

// ScenarioSweep is the outcome of replicated loss-trace scenario runs
// (Figures 2 and 3): the per-replication results in replication order plus
// the mean ± CI aggregate of the headline burstiness metrics. A
// replication whose scenario produces too few drops for analysis is
// recorded in Skipped rather than failing the sweep — exactly as a
// too-quiet path does not contribute to the Figure 4 campaign — and the
// sweep errors only when every replication failed.
type ScenarioSweep struct {
	Results []*ScenarioResult // successful replications, in replication order
	Seeds   []int64           // effective seed of each successful replication
	Skipped []error           // per-replication failures, if any
	Summary exp.ReportSummary
	// Events totals the simulated events across the successful
	// replications.
	Events uint64
	// Forwarded totals the packet transmissions across the successful
	// replications; Events/Forwarded is the events-per-forwarded-packet
	// batching metric cmd/paperexp prints per scenario artifact.
	Forwarded uint64
}

// SweepFigure2 replicates the NS-2 scenario across derived seeds. The
// replications run on per-worker arenas: scratch (scheduler freelist,
// packet pool, analyzer buffers, the cached dumbbell) is reused run to
// run, and the per-replication results carry no raw trace
// (ScenarioResult.Trace is nil; use RunFigure2 when the trace itself is
// needed).
func SweepFigure2(cfg Fig2Config, opts SweepOptions) (*ScenarioSweep, error) {
	return collectScenarioSweep(cfg.Seed, replicate(cfg.Seed, opts,
		func(seed int64, a *exp.Arena) (*ScenarioResult, error) {
			c := cfg
			c.Seed = seed
			return runFigure2(c, a)
		}))
}

// SweepFigure3 replicates the Dummynet scenario across derived seeds, on
// per-worker arenas like SweepFigure2.
func SweepFigure3(cfg Fig3Config, opts SweepOptions) (*ScenarioSweep, error) {
	return collectScenarioSweep(cfg.Seed, replicate(cfg.Seed, opts,
		func(seed int64, a *exp.Arena) (*ScenarioResult, error) {
			c := cfg
			c.Seed = seed
			return runFigure3(c, a)
		}))
}

func collectScenarioSweep(base int64, results []exp.Result[*ScenarioResult]) (*ScenarioSweep, error) {
	s := &ScenarioSweep{}
	var reports []*analysis.Report
	for _, r := range results {
		seed := replicationSeed(base, r.Index, r.Seed)
		if r.Err != nil {
			s.Skipped = append(s.Skipped, fmt.Errorf("replication %d (seed %d): %w", r.Index, seed, r.Err))
			continue
		}
		s.Results = append(s.Results, r.Value)
		s.Seeds = append(s.Seeds, seed)
		s.Events += r.Value.Events
		s.Forwarded += r.Value.Forwarded
		reports = append(reports, r.Value.Report)
	}
	if len(s.Results) == 0 {
		return nil, fmt.Errorf("core: every replication failed: %w", errors.Join(s.Skipped...))
	}
	s.Summary = exp.SummarizeReports(reports)
	return s, nil
}

// DeficitSweep is the outcome of replicated competition runs (Figure 7,
// TFRC): the per-replication results and the mean ± CI of the headline
// deficit.
type DeficitSweep[T any] struct {
	Results []T
	Deficit exp.Estimate
	// Events totals the simulated events across replications.
	Events uint64
}

// collectDeficits gathers replicated competition results; read returns
// one result's deficit and event count. Any failed replication fails the
// sweep.
func collectDeficits[T any](results []exp.Result[T], read func(T) (float64, uint64)) (*DeficitSweep[T], error) {
	vals, err := exp.Values(results)
	if err != nil {
		return nil, err
	}
	s := &DeficitSweep[T]{Results: vals}
	deficits := make([]float64, len(vals))
	for i, v := range vals {
		var events uint64
		deficits[i], events = read(v)
		s.Events += events
	}
	s.Deficit = exp.EstimateOf(deficits)
	return s, nil
}

// SweepFigure7 replicates the pacing-vs-NewReno competition across derived
// seeds, reusing each worker's arena across replications.
func SweepFigure7(cfg Fig7Config, opts SweepOptions) (*DeficitSweep[*Fig7Result], error) {
	return collectDeficits(replicate(cfg.Seed, opts,
		func(seed int64, a *exp.Arena) (*Fig7Result, error) {
			c := cfg
			c.Seed = seed
			return runFigure7(c, a)
		}), func(r *Fig7Result) (float64, uint64) { return r.Deficit, r.Events })
}

// SweepTFRCCompetition replicates the TFRC-vs-NewReno competition across
// derived seeds with per-worker arena reuse, mirroring SweepFigure7.
func SweepTFRCCompetition(cfg TFRCCompConfig, opts SweepOptions) (*DeficitSweep[*TFRCCompResult], error) {
	return collectDeficits(replicate(cfg.Seed, opts,
		func(seed int64, a *exp.Arena) (*TFRCCompResult, error) {
			c := cfg
			c.Seed = seed
			return runTFRCCompetition(c, a)
		}), func(r *TFRCCompResult) (float64, uint64) { return r.Deficit, r.Events })
}

// RunECNComparison runs the ECN-coverage experiment for each mode
// concurrently (the modes are independent worlds, each drawing its
// worker's arena scratch) and returns the results in mode order.
func RunECNComparison(cfg ECNCoverageConfig, modes []ECNMode, workers int) ([]*ECNCoverageResult, error) {
	results := exp.Sweep(exp.Options{Seed: cfg.Seed, Workers: workers}, modes,
		func(r exp.Run[ECNMode], a *exp.Arena) (*ECNCoverageResult, error) {
			// runECNCoverage derives its own per-mode stream from cfg.Seed,
			// so the sweep seed is deliberately unused: results stay
			// identical to sequential runECNCoverage calls.
			return runECNCoverage(cfg, r.Config, a)
		})
	return exp.Values(results)
}
