package core

import (
	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Fig8Config reproduces the parallel-transfer latency experiment: a fixed
// total volume (64 MB) split over N window-based flows at several RTTs
// across the apps package's 100 Mbps bottleneck, with the completion
// latency normalized by the theoretic lower bound. The experiment draws
// nothing random, so it takes no seed: its runs differ only by the
// deterministic RTT shift apps.Sweep applies.
type Fig8Config struct {
	TotalBytes int64          // default 64 MB
	FlowCounts []int          // default {2,4,8,16,32}
	RTTs       []sim.Duration // default {2,10,50,200} ms
	Runs       int            // perturbed repetitions per cell (default 5)
	// Workers bounds how many grid cells run concurrently (each cell is a
	// set of independent simulated worlds, so the surface is identical for
	// any worker count); 0 means GOMAXPROCS.
	Workers int
}

func (c *Fig8Config) fillDefaults() {
	if c.TotalBytes == 0 {
		c.TotalBytes = 64 << 20
	}
	if len(c.FlowCounts) == 0 {
		c.FlowCounts = []int{2, 4, 8, 16, 32}
	}
	if len(c.RTTs) == 0 {
		c.RTTs = []sim.Duration{
			2 * sim.Millisecond, 10 * sim.Millisecond,
			50 * sim.Millisecond, 200 * sim.Millisecond,
		}
	}
	if c.Runs == 0 {
		c.Runs = 5
	}
}

// Fig8Cell is one (RTT, flow count) point: normalized latency mean and
// spread over the runs.
type Fig8Cell struct {
	RTT   sim.Duration
	Flows int
	Mean  float64 // mean normalized latency (≥ 1)
	Std   float64
	Min   float64
	Max   float64
	// Events totals the simulated events across the cell's runs.
	Events uint64
}

// Fig8Result is the full latency surface, row-major by RTT then flows.
type Fig8Result struct {
	Cells      []Fig8Cell
	FlowCounts []int
	RTTs       []sim.Duration
	// Events totals the simulated events across the whole surface.
	Events uint64
}

// RunFigure8 sweeps the latency surface. The grid cells are independent
// experiments, so they fan out across the exp worker pool; the result
// keeps the row-major (RTT, then flows) cell order of the sequential
// sweep.
func RunFigure8(cfg Fig8Config) *Fig8Result {
	cfg.fillDefaults()
	res := &Fig8Result{FlowCounts: cfg.FlowCounts, RTTs: cfg.RTTs}

	type cellCfg struct {
		rtt   sim.Duration
		flows int
	}
	grid := make([]cellCfg, 0, len(cfg.RTTs)*len(cfg.FlowCounts))
	for _, rtt := range cfg.RTTs {
		for _, n := range cfg.FlowCounts {
			grid = append(grid, cellCfg{rtt, n})
		}
	}

	results := exp.Sweep(exp.Options{Workers: cfg.Workers}, grid,
		func(r exp.Run[cellCfg], a *exp.Arena) (Fig8Cell, error) {
			// Every run of every cell this worker executes reuses one
			// scheduler freelist, one packet population and (per flow
			// count) one cached dumbbell world from the arena.
			vals, events := apps.Sweep(apps.ParallelConfig{
				TotalBytes: cfg.TotalBytes,
				Flows:      r.Config.flows,
				RTT:        r.Config.rtt,
			}, cfg.Runs, a)
			s := stats.Summarize(vals)
			return Fig8Cell{
				RTT: r.Config.rtt, Flows: r.Config.flows,
				Mean: s.Mean, Std: s.Std, Min: s.Min, Max: s.Max,
				Events: events,
			}, nil
		})
	// The transfers report trouble through the result, not an error, so a
	// captured error can only be a worker panic (e.g. a malformed config);
	// re-raise it rather than silently emitting a zero cell.
	for _, r := range results {
		if r.Err != nil {
			panic(r.Err)
		}
		res.Cells = append(res.Cells, r.Value)
		res.Events += r.Value.Events
	}
	return res
}
