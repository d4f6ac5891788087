// Link dynamics: time-varying links in two parts. First a custom path is
// declared whose middle hop follows a piecewise-constant bandwidth
// schedule (a deep mid-run fade) and erases bursts on the wire with a
// seeded Gilbert–Elliott chain — the per-2s goodput trace shows TCP
// tracking the capacity down and back up, and the port counters split the
// losses into queue drops (the fade) and wire drops (the chain). Then the
// registered time-varying scenarios (wifi-gilbert, cellular-trace,
// flaky-backbone) run at small scale, showing the paper's burstiness
// metrics surviving — and sharpening — on dynamic links.
//
//	go run ./examples/link_dynamics
package main

import (
	"fmt"
	"os"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	_ "repro/internal/topo/scenarios"
)

func main() {
	if err := fadingPath(); err != nil {
		fmt.Fprintln(os.Stderr, "link_dynamics:", err)
		os.Exit(1)
	}
	if err := dynamicCatalog(); err != nil {
		fmt.Fprintln(os.Stderr, "link_dynamics:", err)
		os.Exit(1)
	}
}

// fadingPath declares source → A → B → sink where A→B fades from 12 Mbps
// to 2 Mbps for four seconds mid-run and carries a bursty wire-loss
// chain, then watches one TCP flow ride through it.
func fadingPath() error {
	sched := sim.NewScheduler()
	spec := topo.Spec{
		Name: "fading-path",
		Nodes: []topo.NodeSpec{
			{Name: "source"}, {Name: "A"}, {Name: "B"}, {Name: "sink"},
		},
		Links: []topo.LinkSpec{
			{A: "source", B: "A", AB: topo.Dir{Rate: 100_000_000, Delay: 2 * sim.Millisecond}},
			{A: "A", B: "B", AB: topo.Dir{
				Rate: 12_000_000, Delay: 10 * sim.Millisecond,
				Queue: topo.QueueSpec{Limit: 25},
				// The schedule: nominal 12 Mbps, a 2 Mbps fade over
				// t ∈ [6 s, 10 s), recovery afterwards. Steps with only a
				// Rate keep the current delay.
				Dynamics: &topo.DynamicsSpec{Steps: []netsim.RateStep{
					{At: 6 * sim.Second, Rate: 2_000_000},
					{At: 10 * sim.Second, Rate: 12_000_000},
				}},
				// A sticky Gilbert–Elliott chain: ~1% of packets lost on
				// the wire in bursts of ~3 back-to-back packets.
				Loss: &topo.LossSpec{PGB: 0.004, PBG: 0.35, KGood: 0, KBad: 1},
			}},
			{A: "B", B: "sink", AB: topo.Dir{Rate: 100_000_000, Delay: 2 * sim.Millisecond}},
		},
		Flows: []topo.FlowSpec{{Label: "bulk", From: "source", To: "sink"}},
	}
	net, err := topo.Build(sched, spec, 1)
	if err != nil {
		return err
	}

	f := tcp.NewPairFlow(sched, net.FlowSender(0), net.FlowReceiver(0), 1, tcp.Config{
		PktSize:    1000,
		InitialRTT: net.FlowRTT(0),
	})
	f.Sender.Start()

	fmt.Printf("fading path: base RTT %v, schedule 12→2→12 Mbps at 6 s / 10 s\n", net.FlowRTT(0))
	hop := net.Port("A", "B")
	var lastAck int64
	for slice := 1; slice <= 7; slice++ {
		sched.RunUntil(sim.Time(sim.Duration(slice) * 2 * sim.Second))
		ack := f.Receiver.CumAck()
		goodput := float64((ack-lastAck)*1000*8) / 2e6 // Mbit/s over the 2 s slice
		fmt.Printf("  t=%2ds..%2ds  goodput %5.1f Mbps  queue drops %3d  wire drops %3d\n",
			(slice-1)*2, slice*2, goodput, hop.Dropped, hop.LinkDropped)
		lastAck = ack
	}
	return nil
}

// dynamicCatalog runs the registered time-varying scenarios briefly and
// prints the same headline numbers examples/topologies prints for the
// static catalog.
func dynamicCatalog() error {
	fmt.Println("\ntime-varying scenario catalog (12 s runs):")
	for _, name := range []string{"wifi-gilbert", "cellular-trace", "flaky-backbone"} {
		sc, ok := topo.Lookup(name)
		if !ok {
			return fmt.Errorf("scenario %q not registered", name)
		}
		res, err := sc.RunIn(topo.ScenarioConfig{
			Seed:     1,
			Duration: 12 * sim.Second,
			Warmup:   2 * sim.Second,
		}, nil) // nil arena: a fresh one for this run
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		r := res.Report
		fmt.Printf("  %-15s drops=%5d  frac<0.01RTT=%.2f  CoV=%.1f  rejects_poisson=%v\n",
			sc.Name, res.Drops, r.FracBelow001, r.CoV, r.RejectsPoisson)
	}
	return nil
}
