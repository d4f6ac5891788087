package repro_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/rft"
	"repro/internal/exp"
	"repro/internal/ratectl"
	"repro/internal/sim"
	"repro/internal/topo"
)

// digestScenario flattens everything a scenario run reports into one
// comparable string: burstiness report, burst records, drop, event and
// forwarded-packet counts. Two runs whose digests match consumed identical random streams
// and saw identical packet dynamics. The report's histogram is a pointer
// and is rendered through its pointee so the digest carries values, not
// addresses.
func digestScenario(res *topo.ScenarioResult) string {
	rep := *res.Report
	hist := "nil"
	if rep.Hist != nil {
		hist = fmt.Sprintf("%+v", *rep.Hist)
		rep.Hist = nil
	}
	return fmt.Sprintf("drops=%d events=%d forwarded=%d rtt=%v\nreport=%+v\nhist=%s\nbursts=%+v",
		res.Drops, res.Events, res.Forwarded, res.MeanRTT, rep, hist, res.Bursts)
}

// TestResetEquivalence is the world-lifecycle property test: running a
// scenario on a warm arena — where topo.NetworkIn finds the cached world
// and Resets it instead of instantiating — must be bit-identical to
// running it on a cold arena and to running it with a nil arena (the
// retained-trace form), run for run. Seeds vary across the runs so the
// reset path also exercises parameter retuning (hetero-mesh perturbs
// delays, buffers and labels per seed while keeping the structure). The
// figure runners' half of this property lives in internal/core
// (TestResetEquivalence there), next to the unexported arena entry points.
func TestResetEquivalence(t *testing.T) {
	const runs = 3
	for _, name := range topo.Names() {
		sc, _ := topo.Lookup(name)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfgAt := func(i int) topo.ScenarioConfig {
				cfg := goldenConfig
				cfg.Seed = goldenConfig.Seed + int64(i)
				return cfg
			}
			// A run's identity includes its failure mode: a seed that
			// produces no drops errors identically cold or warm.
			digest := func(res *topo.ScenarioResult, err error) string {
				if err != nil {
					return "err: " + err.Error()
				}
				return digestScenario(res)
			}
			// Reference: every run on its own cold arena (Instantiate path),
			// which a nil arena must reproduce.
			want := make([]string, runs)
			sawResult := false
			for i := range want {
				want[i] = digest(sc.RunIn(cfgAt(i), exp.NewArena()))
				if want[i][:4] != "err:" {
					sawResult = true
				}
				if got := digest(sc.RunIn(cfgAt(i), nil)); got != want[i] {
					t.Fatalf("run %d with a nil arena diverged from a cold arena:\n--- cold ---\n%s\n--- nil ---\n%s",
						i, want[i], got)
				}
			}
			if !sawResult {
				t.Fatalf("no seed in %v produced a result; test exercises nothing", want)
			}
			// Same runs back to back on one arena: run 0 instantiates and
			// caches, runs 1+ take the Reset path.
			a := exp.NewArena()
			for i := range want {
				if got := digest(sc.RunIn(cfgAt(i), a)); got != want[i] {
					t.Fatalf("run %d on a reset world diverged from a fresh build:\n--- fresh ---\n%s\n--- reset ---\n%s",
						i, want[i], got)
				}
			}
		})
	}
}

// TestParallelArenaReuse pins the transport half of the lifecycle: a
// parallel transfer on a reused arena rewinds its cached dumbbell and its
// cached sender/receiver pairs (tcp.Flow.ResetPair) instead of rebuilding,
// and must reproduce a fresh run's result exactly — per-flow completion
// times included. The sequence deliberately revisits a flow count with a
// different RTT (the buffer limit, and so every DropTail capacity,
// changes across the reset) and interleaves flow counts (several cached
// worlds alive in one arena).
func TestParallelArenaReuse(t *testing.T) {
	cfgs := []apps.ParallelConfig{
		{TotalBytes: 2 << 20, Flows: 4, RTT: 10 * sim.Millisecond},
		{TotalBytes: 2 << 20, Flows: 8, RTT: 2 * sim.Millisecond},
		{TotalBytes: 2 << 20, Flows: 4, RTT: 50 * sim.Millisecond},
		{TotalBytes: 1 << 20, Flows: 8, RTT: 50 * sim.Millisecond, Paced: true},
		{TotalBytes: 2 << 20, Flows: 4, RTT: 10 * sim.Millisecond},
	}
	want := make([]apps.ParallelResult, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = apps.RunParallelIn(cfg, exp.NewArena())
	}
	a := exp.NewArena()
	for i, cfg := range cfgs {
		got := apps.RunParallelIn(cfg, a)
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("run %d (%d flows, rtt %v) on a reused arena diverged:\nfresh: %+v\nreused: %+v",
				i, cfg.Flows, cfg.RTT, want[i], got)
		}
	}
}

// TestGCCResetRateTrace pins the delay-based transport's reset contract:
// replaying the same seed through a cached world — topo.NetworkIn taking
// the Reset path and the flows rewound via GCCFlow.ResetPair — must
// reproduce the exact applied-rate trajectory of a cold build, timestamp
// for timestamp. Any ratectl state that survives a reset (filter
// covariance, detector threshold, AIMD capacity memory, loss-controller
// floor, feedback phase) shows up as a diverging trace here.
func TestGCCResetRateTrace(t *testing.T) {
	t.Parallel()
	const seed = 7
	spec := topo.Spec{Name: "gcc-reset-trace"}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "left"}, topo.NodeSpec{Name: "right"})
	spec.Links = append(spec.Links, topo.LinkSpec{
		A: "left", B: "right",
		AB: topo.Dir{
			Rate: 8_000_000, Delay: 10 * sim.Millisecond,
			Queue:    topo.QueueSpec{Limit: 30},
			Dynamics: &topo.DynamicsSpec{Walk: &topo.WalkSpec{Min: 4_000_000, Max: 12_000_000, Factor: 1.3, Interval: 200 * sim.Millisecond}},
			Loss:     &topo.LossSpec{PGB: 0.003, PBG: 0.25, KGood: 0, KBad: 0.9},
		},
		BA: topo.Dir{Rate: 8_000_000, Delay: 10 * sim.Millisecond, Queue: topo.QueueSpec{Limit: topo.DefaultQueueLimit}},
	})
	for i := 0; i < 2; i++ {
		snd, rcv := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		access := topo.Dir{Rate: 1_000_000_000, Delay: sim.Duration(2+2*i) * sim.Millisecond}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: "left", AB: access},
			topo.LinkSpec{A: "right", B: rcv, AB: access},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: snd, To: rcv, Kind: topo.FlowGCC})
	}

	gccCfg := func(net *topo.Network, a *exp.Arena, i int) ratectl.GCCConfig {
		return ratectl.GCCConfig{
			PktSize:    1000,
			InitialRTT: net.FlowRTT(i),
			Estimator:  ratectl.EstimatorKind(i % 2),
			Seed:       sim.SubSeed(seed, int64(1000+i)),
			Pool:       a.Pool(),
		}
	}
	// run executes one replay on the arena, creating flows on the first
	// call and rewinding them with ResetPair afterwards, and returns the
	// concatenated applied-rate traces of both flows.
	run := func(a *exp.Arena, flows []*ratectl.GCCFlow) ([]*ratectl.GCCFlow, string, error) {
		sched := a.Scheduler()
		net, err := topo.NetworkIn(a, sched, spec, sim.SubSeed(seed, 2))
		if err != nil {
			return flows, "", err
		}
		net.AttachPool(a.Pool())
		var trace strings.Builder
		for i := 0; i < net.NumFlows(); i++ {
			if flows == nil || flows[i] == nil {
				if flows == nil {
					flows = make([]*ratectl.GCCFlow, net.NumFlows())
				}
				flows[i] = ratectl.NewGCCFlow(sched, net.FlowSender(i), net.FlowReceiver(i), i+1, gccCfg(net, a, i))
			} else {
				flows[i].ResetPair(net.FlowSender(i), net.FlowReceiver(i), i+1, gccCfg(net, a, i))
			}
			i := i
			flows[i].Sender.OnRate = func(rate float64, at sim.Time) {
				fmt.Fprintf(&trace, "%d %d %.9f\n", i, int64(at), rate)
			}
			flows[i].StartAt(sched, sim.Time(sim.Duration(i)*250*sim.Millisecond))
		}
		sched.RunUntil(sim.Time(6 * sim.Second))
		return flows, trace.String(), nil
	}

	_, fresh, err := run(exp.NewArena(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(fresh, "\n") < 100 {
		t.Fatalf("trace too short to pin anything:\n%s", fresh)
	}
	a := exp.NewArena()
	flows, first, err := run(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first != fresh {
		t.Fatalf("cold run on shared arena diverged from reference:\n%s", diffSummary(fresh, first))
	}
	_, second, err := run(a, flows)
	if err != nil {
		t.Fatal(err)
	}
	if second != fresh {
		t.Fatalf("reset replay diverged from cold build:\n%s", diffSummary(fresh, second))
	}
}

// TestRFTResetTransferTrace pins the reliable-file-transfer reset contract
// the same way TestGCCResetRateTrace pins the delay-based transport's:
// replaying the same seed through a cached world with the flows rewound
// via rft.Flow.ResetPair must reproduce a cold build's transfer trace —
// every applied rate change, every completion instant with its epoch, and
// the final sender/receiver counters — byte for byte. Any transfer state
// that survives a reset (ledger bits, resend schedule, suppression
// clocks, epoch, AIMD phase, ACK jitter phase) diverges here.
func TestRFTResetTransferTrace(t *testing.T) {
	t.Parallel()
	const seed = 11
	spec := topo.Spec{Name: "rft-reset-trace"}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "left"}, topo.NodeSpec{Name: "right"})
	spec.Links = append(spec.Links, topo.LinkSpec{
		A: "left", B: "right",
		AB: topo.Dir{
			Rate: 8_000_000, Delay: 10 * sim.Millisecond,
			Queue:    topo.QueueSpec{Limit: 30},
			Dynamics: &topo.DynamicsSpec{Walk: &topo.WalkSpec{Min: 4_000_000, Max: 12_000_000, Factor: 1.3, Interval: 200 * sim.Millisecond}},
			Loss:     &topo.LossSpec{PGB: 0.005, PBG: 0.25, KGood: 0, KBad: 0.9},
		},
		BA: topo.Dir{Rate: 8_000_000, Delay: 10 * sim.Millisecond, Queue: topo.QueueSpec{Limit: topo.DefaultQueueLimit}},
	})
	for i := 0; i < 2; i++ {
		snd, rcv := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		access := topo.Dir{Rate: 1_000_000_000, Delay: sim.Duration(2+2*i) * sim.Millisecond}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: "left", AB: access},
			topo.LinkSpec{A: "right", B: rcv, AB: access},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: snd, To: rcv, Kind: topo.FlowRFT})
	}

	rftCfg := func(net *topo.Network, a *exp.Arena, i int) rft.Config {
		return rft.Config{
			ChunkSize:  1000,
			Chunks:     256,
			InitialRTT: net.FlowRTT(i),
			Seed:       sim.SubSeed(seed, int64(1000+i)),
			Pool:       a.Pool(),
		}
	}
	// run executes one replay on the arena, creating flows on the first
	// call and rewinding them with ResetPair afterwards, and returns the
	// concatenated transfer traces of both flows: rate changes,
	// completions (back-to-back via Restart) and final counters.
	run := func(a *exp.Arena, flows []*rft.Flow) ([]*rft.Flow, string, error) {
		sched := a.Scheduler()
		net, err := topo.NetworkIn(a, sched, spec, sim.SubSeed(seed, 2))
		if err != nil {
			return flows, "", err
		}
		net.AttachPool(a.Pool())
		var trace strings.Builder
		for i := 0; i < net.NumFlows(); i++ {
			if flows == nil || flows[i] == nil {
				if flows == nil {
					flows = make([]*rft.Flow, net.NumFlows())
				}
				flows[i] = rft.NewFlow(sched, net.FlowSender(i), net.FlowReceiver(i), i+1, rftCfg(net, a, i))
			} else {
				flows[i].ResetPair(net.FlowSender(i), net.FlowReceiver(i), i+1, rftCfg(net, a, i))
			}
			i := i
			f := flows[i]
			f.Sender.OnRate = func(rate float64, at sim.Time) {
				fmt.Fprintf(&trace, "rate %d %d %.9f\n", i, int64(at), rate)
			}
			f.Sender.OnComplete = func(at sim.Time) {
				fmt.Fprintf(&trace, "done %d %d epoch=%d fct=%d\n", i, int64(at), f.Sender.Epoch(), int64(f.FCT()))
				f.Restart()
			}
			f.StartAt(sched, sim.Time(sim.Duration(i)*250*sim.Millisecond))
		}
		sched.RunUntil(sim.Time(10 * sim.Second))
		for i, f := range flows {
			fmt.Fprintf(&trace, "flow %d sent=%d retrans=%d probes=%d acks=%d stale=%d dec=%d in=%d dup=%d staled=%d out=%d xfers=%d\n",
				i, f.Sender.Sent, f.Sender.Retransmitted, f.Sender.TailProbes,
				f.Sender.AcksIn, f.Sender.StaleAcks, f.Sender.Decreases,
				f.Receiver.DataIn, f.Receiver.Duplicates, f.Receiver.StaleData,
				f.Receiver.AcksOut, f.Receiver.Transfers)
		}
		return flows, trace.String(), nil
	}

	_, fresh, err := run(exp.NewArena(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fresh, "done ") || strings.Count(fresh, "\n") < 100 {
		t.Fatalf("trace pins nothing (no completions or too short):\n%s", fresh)
	}
	a := exp.NewArena()
	flows, first, err := run(a, nil)
	if err != nil {
		t.Fatal(err)
	}
	if first != fresh {
		t.Fatalf("cold run on shared arena diverged from reference:\n%s", diffSummary(fresh, first))
	}
	_, second, err := run(a, flows)
	if err != nil {
		t.Fatal(err)
	}
	if second != fresh {
		t.Fatalf("reset replay diverged from cold build:\n%s", diffSummary(fresh, second))
	}
}
