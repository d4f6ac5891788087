// Topologies: the declarative topology subsystem in two parts. First a
// custom two-hop chain is described as a topo.Spec and built onto the
// netsim substrate — queues, routes and flow RTTs come out of the builder,
// not hand-wiring. Then the registered scenario catalog (dumbbell,
// parking-lot, access-tree, hetero-mesh) runs at small scale, showing the
// paper's burstiness metrics on every topology shape.
//
//	go run ./examples/topologies
package main

import (
	"fmt"
	"os"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	_ "repro/internal/topo/scenarios"
	"repro/internal/trace"
)

func main() {
	if err := customChain(); err != nil {
		fmt.Fprintln(os.Stderr, "topologies:", err)
		os.Exit(1)
	}
	if err := catalog(); err != nil {
		fmt.Fprintln(os.Stderr, "topologies:", err)
		os.Exit(1)
	}
}

// customChain declares source → A → B → sink with a slow congested middle
// link, runs one TCP flow across it, and reports the drop clustering.
func customChain() error {
	sched := sim.NewScheduler()
	spec := topo.Spec{
		Name: "two-hop-chain",
		Nodes: []topo.NodeSpec{
			{Name: "source"}, {Name: "A"}, {Name: "B"}, {Name: "sink"},
		},
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
		return err
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

	fmt.Printf("custom chain: base RTT %v, %d drops at the A→B queue, %d pkts delivered\n",
		net.FlowRTT(0), rec.Len(), f.Receiver.CumAck())
	return nil
}

// catalog runs every registered scenario briefly and prints the headline
// burstiness numbers the paper reports for its dumbbell.
func catalog() error {
	fmt.Println("\nscenario catalog (12 s runs):")
	for _, sc := range topo.Scenarios() {
		res, err := sc.RunIn(topo.ScenarioConfig{
			Seed:     1,
			Duration: 12 * sim.Second,
			Warmup:   2 * sim.Second,
		}, nil) // nil arena: a fresh one for this run
		if err != nil {
			return fmt.Errorf("%s: %w", sc.Name, err)
		}
		r := res.Report
		fmt.Printf("  %-12s drops=%5d  frac<0.01RTT=%.2f  CoV=%.1f  rejects_poisson=%v\n",
			sc.Name, res.Drops, r.FracBelow001, r.CoV, r.RejectsPoisson)
	}
	return nil
}
