// Package rft_test exercises the reliable-file-transfer protocol through
// real simulated worlds (the topo builder, lossy and time-varying links),
// which is why it lives outside the package: rft must stay importable
// from topo, so its tests import topo from the external test package.
package rft_test

import (
	"fmt"
	"testing"

	"repro/internal/apps/rft"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// transferSpec builds a multi-pair path through one middle hop carrying
// the given loss process and dynamics: the adversarial conditions (burst
// erasure, rate retunes, queue overflow) all happen between "left" and
// "right". ackLoss, when non-nil, puts a loss process on the reverse
// (feedback) direction of the same hop.
func transferSpec(loss, ackLoss *topo.LossSpec, dyn *topo.DynamicsSpec, pairs int, queue int) topo.Spec {
	spec := topo.Spec{Name: "rft-test"}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "left"}, topo.NodeSpec{Name: "right"})
	spec.Links = append(spec.Links, topo.LinkSpec{
		A: "left", B: "right",
		AB: topo.Dir{
			Rate: 10_000_000, Delay: 10 * sim.Millisecond,
			Queue:    topo.QueueSpec{Limit: queue},
			Dynamics: dyn,
			Loss:     loss,
		},
		BA: topo.Dir{
			Rate: 10_000_000, Delay: 10 * sim.Millisecond,
			Queue: topo.QueueSpec{Limit: topo.DefaultQueueLimit},
			Loss:  ackLoss,
		},
	})
	for i := 0; i < pairs; i++ {
		snd, rcv := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		access := topo.Dir{Rate: 1_000_000_000, Delay: sim.Duration(2+3*i) * sim.Millisecond}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: "left", AB: access},
			topo.LinkSpec{A: "right", B: rcv, AB: access},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: snd, To: rcv, Kind: topo.FlowRFT})
	}
	return spec
}

// runTransferWorld builds the spec on a fresh arena and runs every flow in
// back-to-back mode for dur: each completion is folded into the returned
// aggregate and the flow restarted. maxRate, when nonzero, caps the AIMD
// (bytes/second). wire, when non-nil, runs after each flow is created
// (before the world starts) so tests can attach observers.
func runTransferWorld(t *testing.T, seed int64, spec topo.Spec, chunks int64, maxRate float64,
	dur sim.Duration, wire func(i int, f *rft.Flow)) ([]*rft.Flow, *rft.TransferAgg) {
	t.Helper()
	a := exp.NewArena()
	sched := a.Scheduler()
	net, err := topo.NetworkIn(a, sched, spec, sim.SubSeed(seed, 2))
	if err != nil {
		t.Fatal(err)
	}
	net.AttachPool(a.Pool())
	agg := rft.NewTransferAgg()
	flows := make([]*rft.Flow, net.NumFlows())
	for i := range flows {
		f := rft.NewFlow(sched, net.FlowSender(i), net.FlowReceiver(i), i+1, rft.Config{
			ChunkSize:  1000,
			Chunks:     chunks,
			InitialRTT: net.FlowRTT(i),
			MaxRate:    maxRate,
			Seed:       sim.SubSeed(seed, int64(1000+i)),
			Pool:       a.Pool(),
		})
		flows[i] = f
		bytes := f.Sender.TransferBytes()
		f.Sender.OnComplete = func(at sim.Time) {
			agg.ObserveFCT(f.FCT(), bytes)
			f.Restart()
		}
		if wire != nil {
			wire(i, f)
		}
		f.StartAt(sched, sim.Time(sim.Duration(i)*200*sim.Millisecond))
	}
	sched.RunUntil(sim.Time(dur))
	for _, f := range flows {
		agg.AddFlowTotals(f)
	}
	return flows, agg
}

// TestTransferLedgerExactlyOnce is the protocol's correctness property:
// across loss (bursty wire erasure AND queue overflow), link retunes and
// back-to-back restarts, every chunk of every completed transfer is
// delivered to the application exactly once — no chunk twice within a
// generation, no generation completing with a chunk missing.
func TestTransferLedgerExactlyOnce(t *testing.T) {
	t.Parallel()
	const (
		chunks = 96
		pairs  = 3
	)
	for seed := int64(1); seed <= 3; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			spec := transferSpec(
				// Sticky erasure bursts: mean 4-packet bad dwell, 90% loss
				// when bad.
				&topo.LossSpec{PGB: 0.01, PBG: 0.25, KGood: 0, KBad: 0.9},
				// A thinner loss process on the feedback path too.
				&topo.LossSpec{PGB: 0.005, PBG: 0.25, KGood: 0, KBad: 0.9},
				// Rate retunes every 150 ms, a 3x swing.
				&topo.DynamicsSpec{Walk: &topo.WalkSpec{
					Min: 4_000_000, Max: 12_000_000, Factor: 1.4, Interval: 150 * sim.Millisecond,
				}},
				pairs,
				20, // small queue: overflow losses on top of wire erasure
			)

			// counts[flow][seq] counts deliveries within the current
			// transfer generation; the completion hook audits and clears it.
			counts := make([][]int64, pairs)
			for i := range counts {
				counts[i] = make([]int64, chunks)
			}
			wire := func(i int, f *rft.Flow) {
				f.Receiver.OnChunk = func(seq int64, at sim.Time) {
					if seq < 0 || seq >= chunks {
						t.Fatalf("flow %d delivered out-of-range chunk %d", i, seq)
					}
					counts[i][seq]++
					if counts[i][seq] > 1 {
						t.Fatalf("flow %d delivered chunk %d twice in one transfer", i, seq)
					}
				}
				f.Receiver.OnComplete = func(at sim.Time) {
					for s, c := range counts[i] {
						if c != 1 {
							t.Fatalf("flow %d completed with chunk %d delivered %d times", i, s, c)
						}
						counts[i][s] = 0
					}
				}
			}
			flows, agg := runTransferWorld(t, seed, spec, chunks, 0, 60*sim.Second, wire)

			// The books must balance: first-time deliveries equal completed
			// generations times the file length plus the in-flight
			// transfer's progress.
			for i, f := range flows {
				delivered := int64(f.Receiver.DataIn) - int64(f.Receiver.Duplicates)
				// A generation that completed but whose restart had not yet
				// reached the receiver at run end is already in Transfers;
				// only an incomplete generation contributes partial progress.
				inflight := int64(0)
				for s := int64(0); s < chunks; s++ {
					if f.Receiver.Has(s) {
						inflight++
					}
				}
				if inflight == chunks { // complete
					inflight = 0
				}
				want := int64(f.Receiver.Transfers)*chunks + inflight
				if delivered != want {
					t.Fatalf("flow %d ledger imbalance: %d first-time deliveries, want %d (%d transfers + %d in-flight)",
						i, delivered, want, f.Receiver.Transfers, inflight)
				}
			}
			if agg.Transfers < int64(pairs) {
				t.Fatalf("only %d transfers completed across %d flows; world too hostile or too short", agg.Transfers, pairs)
			}
			if agg.Retransmitted == 0 {
				t.Fatal("no retransmissions: the loss process exercised nothing")
			}
		})
	}
}

// TestTransferCompletesOnCleanPath pins the base case: a loss-free path
// completes files with zero retransmissions and a plausible FCT.
func TestTransferCompletesOnCleanPath(t *testing.T) {
	t.Parallel()
	spec := transferSpec(nil, nil, nil, 1, 200)
	flows, agg := runTransferWorld(t, 9, spec, 64, 0, 30*sim.Second, nil)
	if agg.Transfers == 0 {
		t.Fatal("no transfer completed on a clean path")
	}
	if flows[0].Sender.Retransmitted != 0 {
		t.Fatalf("clean path retransmitted %d chunks", flows[0].Sender.Retransmitted)
	}
	if got := agg.FCTQuantile(0.5); got <= 0 {
		t.Fatalf("median FCT %v not positive", got)
	}
}

// TestNegativeGeometryPanics pins config validation: a negative chunk
// count is a programming error, not a runnable transfer.
func TestNegativeGeometryPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("negative chunk count did not panic")
		}
	}()
	sched := sim.NewScheduler()
	rft.NewSender(sched, sinkHandler{}, rft.Config{Chunks: -1})
}

type sinkHandler struct{}

func (sinkHandler) Handle(p *netsim.Packet) {}

// TestBurstinessDegradesFCT is the paper's claim pushed through the
// application layer: at a FIXED mean loss rate, making the Gilbert–Elliott
// loss process burstier degrades the flow-completion-time tail
// monotonically. The ladder runs on the FEEDBACK path, where the effect is
// structural rather than a tuning accident: client ACKs are cumulative, so
// a dispersed lost ACK costs almost nothing (the next report a quarter-RTT
// later carries strictly more information), but a long bad-state dwell is
// a feedback blackout — rate growth freezes, repairs stall, and when the
// blackout overlaps a completion the sender is stuck probing one chain
// step per probe round until the dwell expires, a delay proportional to
// the dwell. (On the DATA path the differential inverts by design: the
// cool-off AIMD treats a clustered sub-RTT erasure as one congestion
// event and repairs the contiguous hole in a single round, so the same
// mean loss spread thinly costs MORE decrease rounds — that inversion is
// the paper's argument for modelling loss structure instead of a Poisson
// mean.) The differential probes p99: the stationary bad fraction (the
// chance a completion handshake lands inside a blackout) is constant
// across the ladder, but most overlaps end within a probe round or two —
// the dwell-proportional cost lives in the deepest percentile.
func TestBurstinessDegradesFCT(t *testing.T) {
	t.Parallel()
	// Dwell ladder at fixed mean ACK loss: PBG shrinks (mean bad dwell 8 →
	// 96 feedback packets) while PGB scales to hold the stationary bad
	// fraction — and with KBad fixed, the mean loss rate (8%) — constant.
	const (
		kBad   = 1.0
		target = 0.08 // stationary bad-state fraction = mean ACK loss rate
		chunks = 1024
	)
	dwells := []float64{1.0 / 8, 1.0 / 32, 1.0 / 96}
	tails := make([]float64, len(dwells))
	for li, pbg := range dwells {
		pgb := target * pbg / (1 - target)
		var merged *rft.TransferAgg
		// One pair per world (no cross-flow congestion noise), the AIMD
		// capped a little above the bottleneck so the baseline FCT is
		// tight, and several seeds merged so the tail estimate is stable
		// enough to order.
		for seed := int64(1); seed <= 8; seed++ {
			spec := transferSpec(nil,
				&topo.LossSpec{PGB: pgb, PBG: pbg, KGood: 0, KBad: kBad},
				nil, 1, 200)
			_, agg := runTransferWorld(t, seed, spec, chunks, 1_562_500, 90*sim.Second, nil)
			if merged == nil {
				merged = agg
			} else {
				merged.Merge(agg)
			}
		}
		if merged.Transfers < 20 {
			t.Fatalf("dwell %v completed only %d transfers; ladder needs more", 1/pbg, merged.Transfers)
		}
		tails[li] = merged.FCTQuantile(0.99)
		t.Logf("dwell=%5.1f pkts: transfers=%d p50=%.0fms p95=%.0fms p99=%.0fms mean=%.0fms retrans=%.4f",
			1/pbg, merged.Transfers, merged.FCTQuantile(0.5)*1e3, merged.FCTQuantile(0.95)*1e3,
			tails[li]*1e3, merged.FCT.Mean*1e3, merged.RetransRatio())
	}
	for i := 1; i < len(tails); i++ {
		if tails[i] <= tails[i-1] {
			t.Fatalf("p99 FCT not monotone in burstiness: dwell ladder %v gave tails %v", dwells, tails)
		}
	}
}
