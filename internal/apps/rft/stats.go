package rft

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// TransferSampleBound is the FCT reservoir's retention bound. Percentiles
// are exact up to this many transfers per aggregate; beyond it they come
// from the deterministic weighted subsample of stats.Reservoir.Merge.
const TransferSampleBound = 4096

// TransferAgg is the mergeable flow-completion-time aggregate: per-world
// (or per-replication) transfer outcomes that fold across shards with
// stats machinery, so a fleet can report FCT percentiles over millions of
// transfers while each world retains only a bounded sample. Merging is
// deterministic in merge order — the fleet's world-order merge makes the
// pooled aggregate shard-invariant.
type TransferAgg struct {
	// Transfers counts completed transfers and Bytes their payload
	// volume.
	Transfers int64
	Bytes     int64
	// FCT accumulates per-transfer completion times in seconds; Sample
	// is the bounded reservoir the percentiles are computed from.
	FCT    stats.Moments
	Sample stats.Reservoir
	// Goodput accumulates per-transfer goodput in bits/second.
	Goodput stats.Moments
	// Run totals folded in at world end (AddFlowTotals): chunk
	// transmissions, repair transmissions, duplicate deliveries and
	// client reports.
	Sent          int64
	Retransmitted int64
	Duplicates    int64
	Acks          int64
}

// NewTransferAgg returns an empty aggregate ready to observe.
func NewTransferAgg() *TransferAgg {
	a := &TransferAgg{}
	a.Sample.Reset(TransferSampleBound)
	return a
}

// ObserveFCT folds in one completed transfer.
func (a *TransferAgg) ObserveFCT(fct sim.Duration, bytes int64) {
	if fct <= 0 {
		return
	}
	secs := fct.Seconds()
	a.Transfers++
	a.Bytes += bytes
	a.FCT.Observe(secs)
	a.Sample.Observe(secs)
	a.Goodput.Observe(float64(bytes) * 8 / secs)
}

// AddFlowTotals folds one flow's run totals into the aggregate —
// called once per flow when its world finishes.
func (a *TransferAgg) AddFlowTotals(f *Flow) {
	a.Sent += int64(f.Sender.Sent)
	a.Retransmitted += int64(f.Sender.Retransmitted)
	a.Duplicates += int64(f.Receiver.Duplicates)
	a.Acks += int64(f.Receiver.AcksOut)
}

// Merge folds another aggregate into a. Exact for the counters and the
// Welford moments; the reservoir merge is exact while the union fits the
// bound and a deterministic weighted subsample beyond it.
func (a *TransferAgg) Merge(o *TransferAgg) {
	if o == nil {
		return
	}
	a.Transfers += o.Transfers
	a.Bytes += o.Bytes
	a.FCT.Merge(o.FCT)
	a.Sample.Merge(&o.Sample)
	a.Goodput.Merge(o.Goodput)
	a.Sent += o.Sent
	a.Retransmitted += o.Retransmitted
	a.Duplicates += o.Duplicates
	a.Acks += o.Acks
}

// FCTQuantile returns the q-quantile of the retained FCT sample in
// seconds (0 when no transfer completed).
func (a *TransferAgg) FCTQuantile(q float64) float64 {
	items := a.Sample.Items()
	if len(items) == 0 {
		return 0
	}
	return stats.Quantile(items, q)
}

// RetransRatio is repair transmissions over all chunk transmissions
// (0 when nothing was sent).
func (a *TransferAgg) RetransRatio() float64 {
	if a.Sent == 0 {
		return 0
	}
	return float64(a.Retransmitted) / float64(a.Sent)
}
