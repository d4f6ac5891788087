package topo_test

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
)

// ExampleWorld is the first contact with the simulator. A World scaffolds
// one run: scheduler, packet pool, drop recorder and online analysis.
// Here four TCP NewReno flows share a 50 Mbps bottleneck with a 40 ms
// round trip and a half-BDP buffer, and the bottleneck's drops are the
// loss trace. Finish runs the world and analyzes the inter-loss intervals
// the way the paper does; a Poisson loss process would read CoV 1 and
// index of dispersion 1.
func ExampleWorld() {
	w := topo.NewWorld(nil, 0) // nil arena: a fresh one for this run
	const (
		rate    = 50_000_000
		rtt     = 40 * sim.Millisecond
		pktSize = 1000
		nFlows  = 4
	)
	delays := make([]sim.Duration, nFlows)
	for i := range delays {
		delays[i] = rtt / 2
	}
	d := w.Dumbbell(netsim.DumbbellConfig{
		BottleneckRate: rate,
		AccessRate:     10 * rate,
		AccessDelays:   delays,
		Buffer:         netsim.BDP(rate, rtt, pktSize) / 2,
	})
	w.ObserveDrops(d.Forward)
	for i := 0; i < nFlows; i++ {
		f := tcp.NewPairFlow(w.Sched, d.SenderNode(i), d.ReceiverNode(i), i+1,
			tcp.Config{PktSize: pktSize, InitialRTT: rtt, Pool: w.Pool})
		// Staggered starts avoid artificial synchronization.
		f.StartAt(w.Sched, sim.Time(sim.Duration(i)*250*sim.Millisecond))
	}

	res, err := w.Finish("four-flow dumbbell", 20*sim.Second, rtt)
	if err != nil {
		fmt.Println(err)
		return
	}
	rep := res.Report
	fmt.Println("drops recorded:", res.Drops)
	fmt.Printf("loss rate: %.3f events/RTT\n", rep.Lambda)
	fmt.Printf("within 0.01 RTT: %.4f\n", rep.FracBelow001)
	fmt.Printf("within 1 RTT: %.4f\n", rep.FracBelow1)
	fmt.Printf("interval CoV: %.3f\n", rep.CoV)
	fmt.Printf("index of dispersion: %.3f\n", rep.IndexOfDispersion)
	fmt.Println("rejects Poisson:", rep.RejectsPoisson)
	// Output:
	// drops recorded: 36128
	// loss rate: 81.097 events/RTT
	// within 0.01 RTT: 0.9974
	// within 1 RTT: 0.9984
	// interval CoV: 46.292
	// index of dispersion: 640.914
	// rejects Poisson: true
}

// ExampleBuild declares a custom topology as data, source → A → B → sink
// with a slow congested middle link, and builds it onto the netsim
// substrate: queues, routes and the flow's base RTT come out of the
// builder, not hand-wiring. One TCP flow crosses it for 20 simulated
// seconds while a recorder keeps the A→B queue's drops.
func ExampleBuild() {
	sched := sim.NewScheduler()
	spec := topo.Spec{
		Name:  "two-hop-chain",
		Nodes: []topo.NodeSpec{{Name: "source"}, {Name: "A"}, {Name: "B"}, {Name: "sink"}},
		Links: []topo.LinkSpec{
			{A: "source", B: "A", AB: topo.Dir{Rate: 100_000_000, Delay: 2 * sim.Millisecond}},
			// The bottleneck: 8 Mbps with a 10-packet DropTail queue.
			{A: "A", B: "B", AB: topo.Dir{
				Rate: 8_000_000, Delay: 10 * sim.Millisecond,
				Queue: topo.QueueSpec{Limit: 10},
			}},
			{A: "B", B: "sink", AB: topo.Dir{Rate: 100_000_000, Delay: 2 * sim.Millisecond}},
		},
		Flows: []topo.FlowSpec{{Label: "bulk", From: "source", To: "sink"}},
	}
	net, err := topo.Build(sched, spec, 1)
	if err != nil {
		fmt.Println(err)
		return
	}

	rec := &trace.Recorder{}
	net.Port("A", "B").OnDrop = func(p *netsim.Packet, at sim.Time) {
		rec.Add(trace.LossEvent{At: at, Flow: p.Flow, Seq: p.Seq, Size: p.Size})
	}
	f := tcp.NewPairFlow(sched, net.FlowSender(0), net.FlowReceiver(0), 1, tcp.Config{
		PktSize:    1000,
		InitialRTT: net.FlowRTT(0),
	})
	f.Sender.Start()
	sched.RunUntil(sim.Time(20 * sim.Second))

	fmt.Println("base RTT:", net.FlowRTT(0))
	fmt.Println("drops at the A→B queue:", rec.Len())
	fmt.Println("packets delivered:", f.Receiver.CumAck())
	// Output:
	// base RTT: 0.028000000s
	// drops at the A→B queue: 7321
	// packets delivered: 9199
}

// ExampleNewDumbbell builds the paper's Figure-1 dumbbell through the
// declarative topology builder: the config names the rates, per-pair
// access delays and the shared bottleneck buffer, and the builder wires
// nodes, queues, routes and per-pair base RTTs. The world lives in the
// arena's cache, so a second NewDumbbell of the same pair count on the
// same arena resets it instead of rebuilding.
func ExampleNewDumbbell() {
	a := exp.NewArena()
	d := topo.NewDumbbell(a, a.Scheduler(), netsim.DumbbellConfig{
		BottleneckRate:  50_000_000,
		BottleneckDelay: sim.Millisecond,
		AccessRate:      1_000_000_000,
		AccessDelays:    []sim.Duration{10 * sim.Millisecond, 20 * sim.Millisecond},
		Buffer:          64,
	})
	fmt.Println("pairs:", d.Net.NumFlows())
	fmt.Println("pair 0 base RTT:", d.Net.FlowRTT(0))
	fmt.Println("pair 1 base RTT:", d.Net.FlowRTT(1))
	// Output:
	// pairs: 2
	// pair 0 base RTT: 0.022000000s
	// pair 1 base RTT: 0.042000000s
}

// ExampleBuild_linkDynamics declares a time-varying link: the middle hop
// follows a piecewise-constant bandwidth schedule (DynamicsSpec.Steps)
// and erases burst losses on the wire with a seeded Gilbert–Elliott
// chain (LossSpec). Both are pure data on the Spec; Build seeds and
// starts them, and wire drops surface through the port's ordinary OnDrop
// observer — here just counted via the port counters.
func ExampleBuild_linkDynamics() {
	sched := sim.NewScheduler()
	spec := topo.Spec{
		Name:  "fading-path",
		Nodes: []topo.NodeSpec{{Name: "src"}, {Name: "a"}, {Name: "b"}, {Name: "dst"}},
		Links: []topo.LinkSpec{
			{A: "src", B: "a", AB: topo.Dir{Rate: 100_000_000, Delay: sim.Millisecond}},
			{A: "a", B: "b", AB: topo.Dir{
				Rate: 8_000_000, Delay: 5 * sim.Millisecond,
				Queue: topo.QueueSpec{Limit: 16},
				Dynamics: &topo.DynamicsSpec{
					Steps: []netsim.RateStep{
						{At: 0, Rate: 8_000_000},
						{At: sim.Second, Rate: 1_000_000}, // deep fade
						{At: 2 * sim.Second, Rate: 8_000_000},
					},
				},
				Loss: &topo.LossSpec{PGB: 0.002, PBG: 0.25, KGood: 0, KBad: 1},
			}},
			{A: "b", B: "dst", AB: topo.Dir{Rate: 100_000_000, Delay: sim.Millisecond}},
		},
		Flows: []topo.FlowSpec{{From: "src", To: "dst"}},
	}
	net, err := topo.Build(sched, spec, 42)
	if err != nil {
		fmt.Println(err)
		return
	}

	delivered := 0
	net.Node("dst").BindDefault(netsim.HandlerFunc(func(p *netsim.Packet) { delivered++ }))
	// Offer a steady 4 Mbps for 2.5 s — under the nominal rate, over the
	// faded one — then let the world drain.
	src, dstAddr := net.Node("src"), net.Addr("dst")
	offered := 0
	var feed func()
	feed = func() {
		src.Handle(&netsim.Packet{Size: 1000, Kind: netsim.Data, Src: net.Addr("src"), Dst: dstAddr})
		offered++
		if offered < 1250 {
			sched.After(2*sim.Millisecond, feed)
		}
	}
	sched.After(0, feed)
	sched.RunUntil(sim.Time(4 * sim.Second))

	hop := net.Port("a", "b")
	fmt.Println("retunes:", net.Modulator("a", "b").Retunes)
	fmt.Println("conserved:", delivered+int(hop.Dropped)+int(hop.LinkDropped) == offered)
	fmt.Println("queue drops during the fade:", hop.Dropped > 0)
	fmt.Println("wire drops from the GE chain:", hop.LinkDropped > 0)
	// Output:
	// retunes: 3
	// conserved: true
	// queue drops during the fade: true
	// wire drops from the GE chain: true
}
