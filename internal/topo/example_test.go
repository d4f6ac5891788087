package topo_test

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

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
