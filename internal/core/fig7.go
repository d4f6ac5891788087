package core

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Fig7Config reproduces the pacing-vs-NewReno competition: equal numbers
// of TCP Pacing and TCP NewReno flows share one bottleneck; the paper used
// 16+16 flows on a 100 Mbps, 50 ms-RTT path for 40 s and observed the
// paced aggregate about 17% below the unpaced one.
type Fig7Config struct {
	Seed           int64
	FlowsPerClass  int          // default 16 (per the paper)
	BottleneckRate int64        // default 100 Mbps
	RTT            sim.Duration // default 50 ms
	PktSize        int          // default 1000
	Duration       sim.Duration // default 40 s
	Bin            sim.Duration // throughput bin (default 1 s)
	BufferBDPFrac  float64      // default 0.5
	// PaceQuantum is the paced flows' burst size per pacing tick
	// (default 1 = per-packet pacing; the ablation bench sweeps it).
	PaceQuantum int
}

func (c *Fig7Config) fillDefaults() {
	if c.FlowsPerClass == 0 {
		c.FlowsPerClass = 16
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 100_000_000
	}
	if c.RTT == 0 {
		c.RTT = 50 * sim.Millisecond
	}
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.Duration == 0 {
		c.Duration = 40 * sim.Second
	}
	if c.Bin == 0 {
		c.Bin = sim.Second
	}
	if c.BufferBDPFrac == 0 {
		c.BufferBDPFrac = 0.5
	}
}

// Fig7Result carries the two aggregate-throughput time series and their
// totals.
type Fig7Result struct {
	// PacedMbps and NewRenoMbps are the per-bin aggregate throughputs, the
	// two curves of the paper's Figure 7.
	PacedMbps   []float64
	NewRenoMbps []float64

	PacedTotalPkts   int64
	NewRenoTotalPkts int64

	// Deficit is 1 − paced/newreno, the paper's "17% lower" headline.
	Deficit float64

	// Loss-detection asymmetry: congestion events seen per class, the
	// paper's mechanism (rate-based flows detect more loss events).
	PacedCongestionEvents   uint64
	NewRenoCongestionEvents uint64

	// Events is the number of simulated events the world executed.
	Events uint64
}

// RunFigure7 executes the competition experiment on a fresh arena.
func RunFigure7(cfg Fig7Config) (*Fig7Result, error) {
	return runFigure7(cfg, nil)
}

// runFigure7 builds and runs one competition world on the arena (nil: a
// fresh one). The throughput series stay per-run: they are retained in
// the result.
func runFigure7(cfg Fig7Config, a *exp.Arena) (*Fig7Result, error) {
	cfg.fillDefaults()
	w := topo.NewWorld(a, 0)
	sched, pool := w.Sched, w.Pool

	n := cfg.FlowsPerClass
	delays := make([]sim.Duration, 2*n)
	for i := range delays {
		delays[i] = cfg.RTT / 2
	}
	buffer := bdpBuffer(cfg.BufferBDPFrac, cfg.BottleneckRate, cfg.RTT, cfg.PktSize)
	d := w.Dumbbell(netsim.DumbbellConfig{
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 0,
		AccessRate:      1_000_000_000,
		AccessDelays:    delays,
		Buffer:          buffer,
	})

	pacedSeries := trace.NewThroughputSeries(cfg.Bin)
	renoSeries := trace.NewThroughputSeries(cfg.Bin)

	mk := func(pair, flowID int, paced bool, series *trace.ThroughputSeries) *tcp.Flow {
		f := tcp.NewPairFlow(sched, d.SenderNode(pair), d.ReceiverNode(pair), flowID, tcp.Config{
			PktSize:     cfg.PktSize,
			Paced:       paced,
			PaceQuantum: cfg.PaceQuantum,
			InitialRTT:  cfg.RTT,
			Pool:        pool,
		})
		f.Receiver.OnData = func(p *netsim.Packet, at sim.Time) {
			series.Add(at, int64(p.Size)*8)
		}
		return f
	}

	var paced, reno []*tcp.Flow
	for i := 0; i < n; i++ {
		reno = append(reno, mk(i, i+1, false, renoSeries))
	}
	for i := n; i < 2*n; i++ {
		paced = append(paced, mk(i, i+1, true, pacedSeries))
	}
	// Interleave starts across the two classes within the first 100 ms.
	for i := 0; i < n; i++ {
		off := sim.Duration(i) * 100 * sim.Millisecond / sim.Duration(n)
		reno[i].StartAt(sched, sim.Time(off))
		paced[i].StartAt(sched, sim.Time(off+50*sim.Millisecond/sim.Duration(n)))
	}

	sched.RunUntil(sim.Time(cfg.Duration))

	res := &Fig7Result{
		PacedMbps:   pacedSeries.Mbps(),
		NewRenoMbps: renoSeries.Mbps(),
		Events:      sched.Fired(),
	}
	for _, f := range paced {
		res.PacedTotalPkts += f.Receiver.CumAck()
		res.PacedCongestionEvents += f.Sender.CongestionEvents
	}
	for _, f := range reno {
		res.NewRenoTotalPkts += f.Receiver.CumAck()
		res.NewRenoCongestionEvents += f.Sender.CongestionEvents
	}
	if res.NewRenoTotalPkts == 0 {
		return nil, fmt.Errorf("core: figure 7 NewReno flows delivered nothing")
	}
	res.Deficit = 1 - float64(res.PacedTotalPkts)/float64(res.NewRenoTotalPkts)
	return res, nil
}
