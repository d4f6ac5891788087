// Quickstart: build a shared bottleneck, run TCP flows over it, record the
// drop trace at the router, and analyze the inter-loss intervals the way
// the paper does — PDF against a rate-matched Poisson process.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

func main() {
	// Every run is built on a topo.World: scheduler, packet pool, drop
	// recorder and online analysis in one scaffold. A nil arena means a
	// fresh one, which also retains the raw trace in the result.
	w := topo.NewWorld(nil, 0)

	// A 50 Mbps bottleneck shared by four TCP NewReno flows with a 40 ms
	// round trip and a half-BDP buffer.
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

	// Record every packet the bottleneck drops — the paper's loss trace.
	w.ObserveDrops(d.Forward)

	for i := 0; i < nFlows; i++ {
		f := tcp.NewPairFlow(w.Sched, d.SenderNode(i), d.ReceiverNode(i), i+1,
			tcp.Config{PktSize: pktSize, InitialRTT: rtt, Pool: w.Pool})
		// Stagger starts slightly to avoid artificial synchronization.
		f.StartAt(w.Sched, sim.Time(sim.Duration(i)*250*sim.Millisecond))
	}

	// Run one simulated minute; the losses are analyzed as they happen.
	res, err := w.Finish("quickstart", 60*sim.Second, rtt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
	rep := res.Report

	fmt.Printf("drops recorded:      %d\n", res.Drops)
	fmt.Printf("loss rate:           %.2f events/RTT\n", rep.Lambda)
	fmt.Printf("within 0.01 RTT:     %.1f%%   (paper's NS-2 headline: >95%%)\n", 100*rep.FracBelow001)
	fmt.Printf("within 1 RTT:        %.1f%%\n", 100*rep.FracBelow1)
	fmt.Printf("interval CoV:        %.1f    (Poisson process = 1.0)\n", rep.CoV)
	fmt.Printf("index of dispersion: %.1f    (Poisson process = 1.0)\n\n", rep.IndexOfDispersion)

	fmt.Println("inter-loss interval PDF vs rate-matched Poisson (log scale):")
	if err := core.WriteASCIIPDF(os.Stdout, rep, 20); err != nil {
		fmt.Fprintln(os.Stderr, "quickstart:", err)
		os.Exit(1)
	}
}
