package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/apps/rft"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/ratectl"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The micro-benchmarks in this file isolate one layer or one world — a port
// drain, the node walk, the measurement pipeline, the GCC and RFT
// transports, a dumbbell and a wireless second — and ReportAllocs: the
// engine's contract is an allocation-free steady state. The benchmarks
// whose steady state is contractually 0 allocs/op are written as a
// steadyX(tb) constructor — build and warm the world, return one op — that
// the Benchmark loops over and TestSteadyStateZeroAllocs
// (steady_state_test.go) gates in tier-1.

// BenchmarkPortDrain measures the port's deep-queue drain in isolation:
// one op fills a 4096-packet DropTail backlog in a single burst, then runs
// the world until the last packet is delivered. On the batched path the
// whole drain is one serialization chain (the txDone timer re-armed in
// place) plus one delivery ring (a single timer walking the ring), so the
// per-packet cost is the pure dequeue-and-rearm hot path — and the steady
// state must be allocation-free: scheduler, pool, port and ring are reused
// across ops.
func BenchmarkPortDrain(b *testing.B) { benchSteady(b, steadyPortDrain) }

func steadyPortDrain(tb testing.TB) func() {
	const depth = 4096
	sched := sim.NewScheduler()
	pool := netsim.NewPacketPool()
	delivered := 0
	sink := netsim.HandlerFunc(func(p *netsim.Packet) {
		delivered++
		pool.Put(p)
	})
	port := netsim.NewPort(sched, netsim.NewDropTail(depth),
		netsim.NewLink(1_000_000_000, sim.Millisecond, sink))
	port.Pool = pool
	fill := func() {
		for j := 0; j < depth; j++ {
			p := pool.Get()
			p.Size = 1000
			port.Handle(p)
		}
	}
	run := func() {
		sched.Reset()
		port.Reset()
		delivered = 0
		sched.At(0, fill)
		sched.Run()
		if delivered != depth {
			tb.Fatalf("delivered %d of %d", delivered, depth)
		}
	}
	run() // warm the pool, the delivery ring and the scheduler arena
	return run
}

// BenchmarkNodeForward isolates a packet's walk through the nodes: a router
// holding a route to each of 134 hosts on the dumbbell's sparse address
// plan (1000+i, 2000+i), every host holding one flow binding — the shape of
// the paper-scale 66-pair dumbbell, compiled by topo so the nodes forward
// through the world's shared address→slot index. Each packet crosses
// Node.Handle twice (route lookup at the router, binding scan at the host)
// and one fast-path port between them. Pool, world and scheduler are
// reused across ops, so the steady state allocates nothing; ns/pkt is the
// number to read.
func BenchmarkNodeForward(b *testing.B) {
	benchSteady(b, steadyNodeForward)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*forwardHosts*forwardPerHost), "ns/pkt")
}

const forwardHosts, forwardPerHost = 134, 32

func steadyNodeForward(tb testing.TB) func() {
	spec := topo.Spec{Name: "bench-star", Nodes: []topo.NodeSpec{{Name: "R", Addr: 1}}}
	for i := 0; i < forwardHosts; i++ {
		name := fmt.Sprintf("h%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: name, Addr: 1000*(1+i%2) + i/2})
		spec.Links = append(spec.Links, topo.LinkSpec{A: "R", B: name,
			AB: topo.Dir{Rate: 1_000_000_000, Delay: sim.Millisecond, Queue: topo.QueueSpec{Limit: forwardPerHost}}})
	}
	sched := sim.NewScheduler()
	net, err := topo.Build(sched, spec, benchSeed)
	if err != nil {
		tb.Fatal(err)
	}
	pool := netsim.NewPacketPool()
	net.AttachPool(pool)
	delivered := 0
	sink := netsim.HandlerFunc(func(p *netsim.Packet) {
		delivered++
		pool.Put(p)
	})
	router := net.Node("R")
	dsts := make([]int, forwardHosts)
	for i := range dsts {
		h := net.Node(spec.Nodes[1+i].Name)
		h.Bind(1, sink)
		dsts[i] = h.Addr
	}
	offer := func() {
		for k := 0; k < forwardPerHost; k++ {
			for _, dst := range dsts {
				p := pool.Get()
				p.Flow = 1
				p.Size = 1000
				p.Dst = dst
				router.Handle(p)
			}
		}
	}
	var ports []*netsim.Port
	for _, l := range spec.Links {
		ports = append(ports, net.Port(l.A, l.B), net.Port(l.B, l.A))
	}
	run := func() {
		sched.Reset()
		for _, p := range ports {
			p.Reset()
		}
		delivered = 0
		sched.At(0, offer)
		sched.Run()
		if delivered != forwardHosts*forwardPerHost {
			tb.Fatalf("delivered %d of %d", delivered, forwardHosts*forwardPerHost)
		}
	}
	run() // warm the pool, the delivery rings and the scheduler arena
	return run
}

// syntheticLossTrace builds one bursty loss trace: clusters of
// back-to-back drops separated by multi-RTT gaps, the shape every scenario
// produces.
func syntheticLossTrace(n int) ([]sim.Time, sim.Duration) {
	const rtt = 50 * sim.Millisecond
	out := make([]sim.Time, 0, n)
	var t sim.Time
	for len(out) < n {
		t = t.Add(3 * rtt) // inter-burst gap
		for i := 0; i < 7 && len(out) < n; i++ {
			t = t.Add(rtt / 100) // sub-RTT clustering
			out = append(out, t)
		}
	}
	return out, rtt
}

// BenchmarkAnalyzeStreaming measures the online pipeline on a synthetic
// trace: a sink-mode recorder feeds the analyzer event by event and the
// scratch (histogram, reservoir, PMF and sort buffers) is reused across
// iterations exactly as a sweep worker reuses it across replications —
// the steady state is allocation-free except for the bounded one-time
// scratch growth.
func BenchmarkAnalyzeStreaming(b *testing.B) { benchSteady(b, steadyAnalyzeStreaming) }

func steadyAnalyzeStreaming(tb testing.TB) func() {
	times, rtt := syntheticLossTrace(20000)
	an, err := analysis.NewStreaming(rtt, analysis.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	rec := &trace.Recorder{}
	rec.SetSink(an.Observe, false)
	run := func() {
		if err := an.Reset(rtt, analysis.Config{}); err != nil {
			tb.Fatal(err)
		}
		for k, at := range times {
			rec.Add(trace.LossEvent{At: at, Flow: k % 16, Seq: int64(k)})
		}
		rep, err := an.Finalize()
		if err != nil {
			tb.Fatal(err)
		}
		reportMetric(tb, rep.CoV, "cov")
	}
	run() // warm the scratch: the steady state is what the contract covers
	return run
}

// BenchmarkWifiGilbertSecond runs one simulated second of a time-varying
// world — 8 TCP flows over a random-walk-modulated wireless hop with a
// Gilbert–Elliott wire dropper — so the link-dynamics path (modulator
// retunes, per-packet chain draws, wire-drop recycling) has a micro-bench
// next to the static DumbbellSecond.
func BenchmarkWifiGilbertSecond(b *testing.B) {
	b.ReportAllocs()
	spec := topo.Spec{Name: "wifi-bench"}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "ap"}, topo.NodeSpec{Name: "gw"})
	spec.Links = append(spec.Links, topo.LinkSpec{
		A: "ap", B: "gw",
		AB: topo.Dir{
			Rate: 30_000_000, Delay: 3 * sim.Millisecond,
			Queue: topo.QueueSpec{Limit: 64},
			Dynamics: &topo.DynamicsSpec{Walk: &topo.WalkSpec{
				Min: 12_000_000, Max: 54_000_000, Factor: 1.3, Interval: 20 * sim.Millisecond,
			}},
			Loss: &topo.LossSpec{PGB: 0.003, PBG: 0.25, KGood: 0, KBad: 0.9},
		},
		BA: topo.Dir{Rate: 30_000_000, Delay: 3 * sim.Millisecond},
	})
	for j := 0; j < 8; j++ {
		snd, rcv := fmt.Sprintf("s%d", j), fmt.Sprintf("r%d", j)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		access := topo.Dir{Rate: 1_000_000_000, Delay: sim.Duration(3+3*j) * sim.Millisecond}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: "ap", AB: access},
			topo.LinkSpec{A: "gw", B: rcv, AB: access},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: snd, To: rcv})
	}
	for i := 0; i < b.N; i++ {
		sched := sim.NewScheduler()
		pool := netsim.NewPacketPool()
		net, err := topo.Build(sched, spec, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		net.AttachPool(pool)
		for j := 0; j < net.NumFlows(); j++ {
			f := tcp.NewPairFlow(sched, net.FlowSender(j), net.FlowReceiver(j), j+1, tcp.Config{
				InitialRTT: net.FlowRTT(j),
				Pool:       pool,
			})
			f.Sender.Start()
		}
		sched.RunUntil(sim.Time(sim.Second))
		hop := net.Port("ap", "gw")
		if hop.Forwarded() == 0 {
			b.Fatal("wireless hop forwarded nothing")
		}
		if hop.LinkDropped == 0 {
			b.Fatal("GE chain never dropped on the wire")
		}
		b.ReportMetric(float64(sched.Fired()), "events")
		b.ReportMetric(float64(hop.Dropped+hop.LinkDropped), "drops")
		b.ReportMetric(float64(sched.Fired())/float64(net.Forwarded()), "events_per_pkt")
	}
}

// BenchmarkDumbbellSecond runs one simulated second of a loaded dumbbell —
// 8 TCP flows into a 50 Mbps bottleneck — end to end: transports, nodes,
// ports, queues and scheduler together, the world every figure scales up,
// built the way every figure builds it: a topo.World on a worker's arena,
// so iterations after the first reset the cached dumbbell.
func BenchmarkDumbbellSecond(b *testing.B) {
	b.ReportAllocs()
	delays := make([]sim.Duration, 8)
	for i := range delays {
		delays[i] = sim.Duration(5+5*i) * sim.Millisecond
	}
	arena := exp.NewArena()
	for i := 0; i < b.N; i++ {
		w := topo.NewWorld(arena, 0)
		sched, pool := w.Sched, w.Pool
		d := w.Dumbbell(netsim.DumbbellConfig{
			BottleneckRate: 50_000_000,
			AccessRate:     1_000_000_000,
			AccessDelays:   delays,
			Buffer:         64,
		})
		for j := range delays {
			f := tcp.NewPairFlow(sched, d.SenderNode(j), d.ReceiverNode(j), j+1, tcp.Config{
				InitialRTT: 2 * delays[j],
				Pool:       pool,
			})
			f.Sender.Start()
		}
		sched.RunUntil(sim.Time(sim.Second))
		if d.Forward.Forwarded() == 0 {
			b.Fatal("bottleneck forwarded nothing")
		}
		b.ReportMetric(float64(sched.Fired()), "events")
		b.ReportMetric(float64(sched.Fired())/float64(d.Net.Forwarded()), "events_per_pkt")
	}
}

// BenchmarkOveruseDetector runs the receiver-side congestion pipeline —
// burst grouping, Kalman gradient filter, adaptive-threshold detector and
// AIMD controller — over a precomputed sawtooth of queue build-ups and
// drains, with no world around it. This is the per-packet cost a GCC
// receiver adds on top of plain forwarding, and it must stay
// allocation-free: every stage reuses its own state across resets.
func BenchmarkOveruseDetector(b *testing.B) { benchSteady(b, steadyOveruseDetector) }

func steadyOveruseDetector(tb testing.TB) func() {
	type pkt struct {
		send, arrive sim.Time
		size         int
	}
	// 20k packets, 1 ms apart in send time, riding a queue sawtooth: ramps
	// of +0.05 ms/packet alternate with drains back to the floor, plus
	// seeded sub-millisecond jitter so the filters do real smoothing work.
	rng := sim.NewRand(9)
	pkts := make([]pkt, 20000)
	queue := 0.0
	for i := range pkts {
		if (i/400)%2 == 0 {
			queue += 0.05
		} else if queue > 0 {
			queue -= 0.05
		}
		send := sim.Time(sim.Duration(i) * sim.Millisecond)
		lat := 20 + queue + rng.Float64()*0.3
		pkts[i] = pkt{
			send:   send,
			arrive: send.Add(sim.Duration(lat * float64(sim.Millisecond))),
			size:   1000,
		}
	}
	var ia ratectl.InterArrival
	kal := ratectl.NewKalmanEstimator()
	det := ratectl.NewOveruseDetector()
	aimd := ratectl.NewAIMDController(125_000, 12_500, 0)
	return func() {
		ia.Reset()
		kal.Reset()
		det.Reset()
		aimd.Reset(125_000, 12_500, 0)
		for _, p := range pkts {
			d, ok := ia.Add(p.send, p.arrive, p.size)
			if !ok {
				continue
			}
			st := det.Update(kal.Update(d), d.Arrival)
			aimd.Update(st, 250_000, d.Arrival)
		}
		if det.OveruseHits == 0 || aimd.Decreases == 0 {
			tb.Fatal("sawtooth never tripped the detector")
		}
	}
}

// warmSeconds is how long a feedback-carrying world runs before its
// steady state. A receiver's report rides whichever pooled packet it draws,
// and that packet is given its report block (netsim.Packet.Report) on
// first use, so the first seconds attach blocks until every packet in
// circulation has one: GCC and RFT worlds allocate in seconds 1–4 and in
// none of the next six. Worlds are deterministic, so this is not a
// tolerance.
const warmSeconds = 4

// BenchmarkRatectlSecond runs one more simulated second of two
// delay-based flows sharing a static 6 Mbps bottleneck on a warm running
// world. The point is the ratectl contract: a steady-state second of
// pacing, grouping, estimation and feedback at 0 allocs/op.
func BenchmarkRatectlSecond(b *testing.B) { benchSteady(b, steadyRatectlSecond) }

func steadyRatectlSecond(tb testing.TB) func() {
	const seed = 3
	spec := topo.Spec{Name: "ratectl-second"}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "left"}, topo.NodeSpec{Name: "right"})
	hop := topo.Dir{Rate: 6_000_000, Delay: 20 * sim.Millisecond, Queue: topo.QueueSpec{Limit: 40}}
	spec.Links = append(spec.Links, topo.LinkSpec{A: "left", B: "right", AB: hop, BA: hop})
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

	w := topo.NewWorld(exp.NewArena(), 0)
	net, err := w.Network(spec, sim.SubSeed(seed, 1))
	if err != nil {
		tb.Fatal(err)
	}
	flows := make([]*ratectl.GCCFlow, net.NumFlows())
	for i := range flows {
		flows[i] = ratectl.NewGCCFlow(w.Sched, net.FlowSender(i), net.FlowReceiver(i), i+1, ratectl.GCCConfig{
			InitialRTT: net.FlowRTT(i),
			Estimator:  ratectl.EstimatorKind(i % 2),
			Seed:       sim.SubSeed(seed, int64(1000+i)),
			Pool:       w.Pool,
		})
		flows[i].StartAt(w.Sched, sim.Time(sim.Duration(i)*10*sim.Millisecond))
	}
	snd := flows[0].Sender
	second := func() {
		sent, fb, fired := snd.Sent, snd.FeedbackIn, w.Sched.Fired()
		w.Sched.RunUntil(w.Sched.Now().Add(sim.Second))
		if snd.Sent == sent || snd.FeedbackIn == fb {
			tb.Fatal("flow exchanged no data or feedback")
		}
		reportMetric(tb, float64(w.Sched.Fired()-fired), "events")
	}
	for range warmSeconds {
		second()
	}
	return second
}

// BenchmarkRFTTransferSecond runs one more simulated second of two
// reliable file transfers sharing a static 10 Mbps bottleneck on a warm
// running world, each flow restarting its next transfer from OnComplete
// as the registered RFT scenarios do. The point is the transfer contract:
// a steady-state second of pacing, ledger upkeep, client ACKs, AIMD
// updates and restarts at 0 allocs/op on warm sentAt/bitmap/resend
// capacity.
func BenchmarkRFTTransferSecond(b *testing.B) { benchSteady(b, steadyRFTTransferSecond) }

func steadyRFTTransferSecond(tb testing.TB) func() {
	const seed = 3
	spec := topo.Spec{Name: "rft-second"}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "left"}, topo.NodeSpec{Name: "right"})
	hop := topo.Dir{Rate: 10_000_000, Delay: 10 * sim.Millisecond, Queue: topo.QueueSpec{Limit: 100}}
	spec.Links = append(spec.Links, topo.LinkSpec{A: "left", B: "right", AB: hop, BA: hop})
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

	w := topo.NewWorld(exp.NewArena(), 0)
	net, err := w.Network(spec, sim.SubSeed(seed, 1))
	if err != nil {
		tb.Fatal(err)
	}
	flows := make([]*rft.Flow, net.NumFlows())
	for i := range flows {
		f := rft.NewFlow(w.Sched, net.FlowSender(i), net.FlowReceiver(i), i+1, rft.Config{
			ChunkSize:  1000,
			Chunks:     512,
			InitialRTT: net.FlowRTT(i),
			Seed:       sim.SubSeed(seed, int64(1000+i)),
			Pool:       w.Pool,
		})
		f.Sender.OnComplete = func(sim.Time) { f.Restart() }
		f.StartAt(w.Sched, sim.Time(sim.Duration(i)*10*sim.Millisecond))
		flows[i] = f
	}
	f := flows[0]
	second := func() {
		sent, acks, fired := f.Sender.Sent, f.Receiver.AcksOut, w.Sched.Fired()
		w.Sched.RunUntil(w.Sched.Now().Add(sim.Second))
		if f.Sender.Sent == sent || f.Receiver.AcksOut == acks {
			tb.Fatal("transfer exchanged no data or reports")
		}
		reportMetric(tb, float64(w.Sched.Fired()-fired), "events")
	}
	for range warmSeconds {
		second()
	}
	return second
}
