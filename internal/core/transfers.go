package core

import (
	"fmt"
	"io"

	"repro/internal/apps/rft"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/topo/scenarios"
)

// TransferRow is one RFT scenario's flow-completion-time aggregate,
// merged across replications.
type TransferRow struct {
	Scenario string
	// Agg is the merged transfer aggregate: FCT moments and percentile
	// sample, goodput moments and transmission totals over every
	// replication's worlds.
	Agg *rft.TransferAgg
	// Drops totals the replications' recorded losses, Events their
	// simulated event counts.
	Drops  int64
	Events uint64
}

// TransfersResult is the transfer experiment: for each registered RFT
// scenario, the merged FCT distribution of Replications independent
// worlds.
type TransfersResult struct {
	Rows         []TransferRow
	Replications int
	// Events sums the simulated event counts of every world in the sweep.
	Events uint64
}

// SweepTransfers runs every RFT scenario (scenarios.TransferScenarios)
// across derived replication seeds and merges each scenario's
// rft.TransferAgg in replication order. Replication 0 replays cfg.Seed;
// like every sweep, the result is a pure function of
// (cfg, Replications) regardless of Workers — the merge walks the item
// list in order, so worker scheduling never reorders it.
func SweepTransfers(cfg topo.ScenarioConfig, opts SweepOptions) (*TransfersResult, error) {
	cfg.FillDefaults()
	opts.fillDefaults()
	names := scenarios.TransferScenarios()

	type cell struct {
		sc  int
		rep int
	}
	var items []cell
	for si := range names {
		for r := 0; r < opts.Replications; r++ {
			items = append(items, cell{sc: si, rep: r})
		}
	}

	results := exp.Sweep(exp.Options{Seed: cfg.Seed, Workers: opts.Workers}, items,
		func(run exp.Run[cell], a *exp.Arena) (*topo.ScenarioResult, error) {
			sc, ok := topo.Lookup(names[run.Config.sc])
			if !ok {
				return nil, fmt.Errorf("core: transfer scenario %q not registered", names[run.Config.sc])
			}
			c := cfg
			c.Seed = replicationSeed(cfg.Seed, run.Config.rep, sim.SubSeed(cfg.Seed, int64(run.Config.rep)))
			return sc.RunIn(c, a)
		})
	vals, err := exp.Values(results)
	if err != nil {
		return nil, fmt.Errorf("core: transfers: %w", err)
	}

	res := &TransfersResult{Replications: opts.Replications}
	i := 0
	for _, name := range names {
		row := TransferRow{Scenario: name, Agg: rft.NewTransferAgg()}
		for r := 0; r < opts.Replications; r++ {
			v := vals[i]
			i++
			res.Events += v.Events
			row.Drops += int64(v.Drops)
			row.Events += v.Events
			if v.Transfers == nil {
				return nil, fmt.Errorf("core: scenario %q ran no transfer flows", name)
			}
			row.Agg.Merge(v.Transfers)
		}
		if row.Agg.Transfers == 0 {
			return nil, fmt.Errorf("core: scenario %q completed no transfers; increase duration", name)
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// WriteTransfers renders the transfer experiment: per RFT scenario, the
// completed-transfer count, the FCT distribution (p50/p95/p99 from the
// merged reservoir sample), the mean per-transfer goodput, and the
// retransmission ratio the burst losses extracted.
func WriteTransfers(w io.Writer, r *TransfersResult) error {
	if _, err := fmt.Fprintf(w, "reliable file transfer: flow completion times (%d replications)\n",
		r.Replications); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-20s %9s %10s %10s %10s %12s %9s %8s\n",
		"scenario", "transfers", "fct-p50", "fct-p95", "fct-p99", "goodput", "retrans", "drops"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%-20s %9d %8.0f ms %8.0f ms %8.0f ms %7.2f Mbps %8.4f %8d\n",
			row.Scenario, row.Agg.Transfers,
			row.Agg.FCTQuantile(0.50)*1e3,
			row.Agg.FCTQuantile(0.95)*1e3,
			row.Agg.FCTQuantile(0.99)*1e3,
			row.Agg.Goodput.Mean/1e6,
			row.Agg.RetransRatio(), row.Drops); err != nil {
			return err
		}
	}
	return nil
}
