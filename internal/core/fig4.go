package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/planetlab"
	"repro/internal/probe"
	"repro/internal/sim"
)

// Fig4Config reproduces the PlanetLab measurement campaign: CBR probes
// over randomly picked directed paths of the 26-site mesh, two runs per
// path (48 B and 400 B) with cross-validation, loss intervals normalized
// by each path's RTT, aggregated into one PDF.
type Fig4Config struct {
	Seed int64
	// Paths is how many randomly picked directed paths to measure
	// (the paper measured across all 650 over three months; default 60).
	Paths int
	// ProbeInterval is the CBR probe gap (default 1 ms).
	ProbeInterval sim.Duration
	// Duration is the per-run measurement length (default 5 minutes, as
	// in the paper; benches scale this down).
	Duration sim.Duration
	// MinLosses is the minimum number of losses for a path to contribute
	// to the aggregate (default 5).
	MinLosses int
	// Workers bounds how many paths are measured concurrently (each path
	// is an independent simulated world with its own scheduler and rng
	// stream, so the result is identical for any worker count); 0 means
	// GOMAXPROCS.
	Workers int
}

func (c *Fig4Config) fillDefaults() {
	if c.Paths == 0 {
		c.Paths = 60
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = sim.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 5 * 60 * sim.Second
	}
	if c.MinLosses == 0 {
		c.MinLosses = 5
	}
}

// Fig4Result aggregates the campaign.
type Fig4Result struct {
	Report *analysis.Report // merged, RTT-normalized PDF across paths

	PathsMeasured  int
	PathsValidated int // passed the dual-size validation
	PathsAnalyzed  int // validated and enough losses
	TotalLosses    int
	// Events totals the simulated events across every path world,
	// including paths the validation later rejected.
	Events uint64
}

// pathOutcome is one path's contribution to the campaign, produced inside
// a sweep worker.
type pathOutcome struct {
	valid  bool
	report *analysis.Report // nil when invalid or too few losses
	events uint64           // simulated events the path world executed
}

// RunFigure4 executes the campaign. Path selection is sequential (it
// consumes one picking rng), but the per-path measurements — each its own
// simulated world with its own scheduler and rng stream — fan out across
// the exp worker pool, each reusing its worker's arena: the probe packets
// come from the arena's pool (a 5-minute run sends ~300k probes per
// size), the scheduler's event freelist survives from path to path, and
// the loss times stream through the arena's analyzer. The aggregate is
// identical for any worker count.
func RunFigure4(cfg Fig4Config) (*Fig4Result, error) {
	cfg.fillDefaults()
	mesh := planetlab.NewMesh(planetlab.MeshConfig{Seed: cfg.Seed})
	pick := sim.NewRand(sim.SubSeed(cfg.Seed, 21))

	pairs := mesh.RandomPairs(pick, cfg.Paths)

	// The mesh is immutable after construction, so sharing it across the
	// workers is safe; every mutable piece of a measurement is created in
	// the worker or reset out of its arena.
	results := exp.Sweep(exp.Options{Seed: cfg.Seed, Workers: cfg.Workers}, pairs,
		func(r exp.Run[[2]int], a *exp.Arena) (pathOutcome, error) {
			sched := a.Scheduler()
			path := mesh.NewPathProcess(r.Config[0], r.Config[1])
			m := probe.MeasurePath(sched, path, probe.RunConfig{
				Flow:     1,
				Interval: cfg.ProbeInterval,
				Duration: cfg.Duration,
				Pool:     a.Pool(),
			})
			out := pathOutcome{valid: m.Valid, events: sched.Fired()}
			if !m.Valid || len(m.Small.LossSendTimes) < cfg.MinLosses {
				return out, nil
			}
			an, err := a.Analyzer(m.Small.PathRTT, analysis.Config{})
			if err != nil {
				return out, err
			}
			for _, t := range m.Small.LossSendTimes {
				an.ObserveTime(t)
			}
			rep, err := an.Finalize()
			if err != nil {
				// A path without enough analyzable intervals simply does not
				// contribute, exactly as in the sequential campaign.
				return out, nil
			}
			// Clone: the merge below needs the per-path intervals after the
			// arena has moved on to the worker's next path.
			out.report = rep.Clone()
			return out, nil
		})
	outcomes, err := exp.Values(results)
	if err != nil {
		return nil, err
	}

	res := &Fig4Result{PathsMeasured: len(outcomes)}
	var reports []*analysis.Report
	for _, o := range outcomes {
		res.Events += o.events
		if !o.valid {
			continue
		}
		res.PathsValidated++
		if o.report == nil {
			continue
		}
		res.PathsAnalyzed++
		res.TotalLosses += o.report.N
		reports = append(reports, o.report)
	}
	if len(reports) == 0 {
		return nil, fmt.Errorf("core: figure 4 campaign yielded no analyzable paths")
	}
	merged, err := analysis.Merge(reports, analysis.Config{})
	if err != nil {
		return nil, err
	}
	res.Report = merged
	return res, nil
}
