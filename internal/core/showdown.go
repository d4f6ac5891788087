package core

import (
	"fmt"
	"io"

	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/topo/scenarios"
)

// ShowdownCell aggregates one transport family's metrics on one showdown
// world across replications (plain means).
type ShowdownCell struct {
	GoodputBps     float64
	InducedDelayMs float64
	Drops          float64
	RecoveryMs     float64
}

// ShowdownRow is one world's loss-based vs delay-based comparison.
type ShowdownRow struct {
	Scenario string
	Loss     ShowdownCell // every flow loss-based (TCP)
	Delay    ShowdownCell // every flow delay-based (GCC)
}

// ShowdownResult is the loss-vs-delay showdown figure: for each
// time-varying world, the same seeds run once with every flow loss-based
// and once with every flow delay-based.
type ShowdownResult struct {
	Rows         []ShowdownRow
	Replications int
	// Events sums the simulated event counts of every world in the sweep.
	Events uint64
}

// SweepShowdown runs the loss-vs-delay showdown: each showdown shape
// (scenarios.ShowdownShapes) is run with all-TCP flows and with all-GCC
// flows, paired so both transport families of one replication face the
// same world seed — identical link dynamics, wire loss and background
// noise. Replication 0 replays cfg.Seed; like every sweep, the result is
// a pure function of (cfg, Replications) regardless of Workers.
func SweepShowdown(cfg topo.ScenarioConfig, opts SweepOptions) (*ShowdownResult, error) {
	cfg.FillDefaults()
	opts.fillDefaults()
	shapes := scenarios.ShowdownShapes()
	kinds := []topo.FlowKind{topo.FlowTCP, topo.FlowGCC}

	type cell struct {
		shape int
		kind  topo.FlowKind
		rep   int
	}
	var items []cell
	for si := range shapes {
		for _, k := range kinds {
			for r := 0; r < opts.Replications; r++ {
				items = append(items, cell{shape: si, kind: k, rep: r})
			}
		}
	}

	results := exp.Sweep(exp.Options{Seed: cfg.Seed, Workers: opts.Workers}, items,
		func(run exp.Run[cell], a *exp.Arena) (*scenarios.ShowdownMetrics, error) {
			c := cfg
			// The seed depends only on the replication index, never the
			// transport kind: the pairing that makes the comparison
			// controlled.
			c.Seed = replicationSeed(cfg.Seed, run.Config.rep, sim.SubSeed(cfg.Seed, int64(run.Config.rep)))
			return scenarios.RunShowdownWorld(shapes[run.Config.shape], run.Config.kind, c, a)
		})
	vals, err := exp.Values(results)
	if err != nil {
		return nil, fmt.Errorf("core: showdown: %w", err)
	}

	res := &ShowdownResult{Replications: opts.Replications}
	i := 0
	for si := range shapes {
		row := ShowdownRow{Scenario: shapes[si].Name}
		for _, k := range kinds {
			var agg ShowdownCell
			for r := 0; r < opts.Replications; r++ {
				m := vals[i]
				i++
				res.Events += m.Events
				agg.GoodputBps += m.GoodputBps
				agg.InducedDelayMs += m.InducedDelayMs
				agg.Drops += float64(m.Drops)
				agg.RecoveryMs += m.RecoveryMs
			}
			n := float64(opts.Replications)
			agg.GoodputBps /= n
			agg.InducedDelayMs /= n
			agg.Drops /= n
			agg.RecoveryMs /= n
			if k == topo.FlowGCC {
				row.Delay = agg
			} else {
				row.Loss = agg
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteShowdown renders the showdown figure: per world, the loss-based and
// delay-based transports' goodput, self-induced queueing delay, middle-hop
// drops and loss-episode recovery time.
func WriteShowdown(w io.Writer, r *ShowdownResult) error {
	if _, err := fmt.Fprintf(w, "loss-based vs delay-based congestion control (%d replications)\n",
		r.Replications); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-16s %-10s %12s %14s %8s %12s\n",
		"scenario", "transport", "goodput", "induced-delay", "drops", "recovery"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		cells := []struct {
			name string
			c    ShowdownCell
		}{
			{"loss/tcp", row.Loss},
			{"delay/gcc", row.Delay},
		}
		for j, cl := range cells {
			name := row.Scenario
			if j > 0 {
				name = ""
			}
			if _, err := fmt.Fprintf(w, "%-16s %-10s %9.2f Mbps %11.1f ms %8.1f %9.0f ms\n",
				name, cl.name,
				cl.c.GoodputBps/1e6, cl.c.InducedDelayMs, cl.c.Drops, cl.c.RecoveryMs); err != nil {
				return err
			}
		}
	}
	return nil
}
