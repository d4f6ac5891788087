package core

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/topo/scenarios"
	"repro/internal/trace"
)

// Fig7Config reproduces the pacing-vs-NewReno competition: equal numbers
// of TCP Pacing and TCP NewReno flows share one 100 Mbps bottleneck with
// a half-BDP buffer; the paper used 16+16 flows on a 50 ms-RTT path for
// 40 s and observed the paced aggregate about 17% below the unpaced one.
type Fig7Config struct {
	Seed          int64
	FlowsPerClass int          // default 16 (per the paper)
	RTT           sim.Duration // default 50 ms
	Duration      sim.Duration // default 40 s
	// PaceQuantum is the paced flows' burst size per pacing tick
	// (default 1 = per-packet pacing; the ablation bench sweeps it).
	PaceQuantum int
}

func (c *Fig7Config) fillDefaults() {
	if c.FlowsPerClass == 0 {
		c.FlowsPerClass = 16
	}
	if c.RTT == 0 {
		c.RTT = 50 * sim.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 40 * sim.Second
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

// runFigure7 builds and runs one competition world on the arena (nil: a
// fresh one): NewReno on the first FlowsPerClass pairs, pacing on the
// rest. The 1 s throughput series stay per-run: they are retained in the
// result.
func runFigure7(cfg Fig7Config, a *exp.Arena) (*Fig7Result, error) {
	cfg.fillDefaults()
	n := cfg.FlowsPerClass
	p := scenarios.Competition(n, cfg.RTT, scenarios.Paced)
	p.PaceQuantum = cfg.PaceQuantum
	b := scenarios.BuildDumbbell(p, topo.ScenarioConfig{Seed: cfg.Seed, Duration: cfg.Duration}, a)

	reno, paced := trace.NewThroughputSeries(sim.Second), trace.NewThroughputSeries(sim.Second)
	for i, f := range b.TCP {
		series := reno
		if i >= n {
			series = paced
		}
		f.Receiver.OnData = func(p *netsim.Packet, at sim.Time) {
			series.Add(at, int64(p.Size)*8)
		}
	}
	b.Run()

	res := &Fig7Result{
		PacedMbps:   paced.Mbps(),
		NewRenoMbps: reno.Mbps(),
		Events:      b.Sched.Fired(),
	}
	for _, f := range b.TCP[n:] {
		res.PacedTotalPkts += f.Receiver.CumAck()
		res.PacedCongestionEvents += f.Sender.CongestionEvents
	}
	for _, f := range b.TCP[:n] {
		res.NewRenoTotalPkts += f.Receiver.CumAck()
		res.NewRenoCongestionEvents += f.Sender.CongestionEvents
	}
	if res.NewRenoTotalPkts == 0 {
		return nil, fmt.Errorf("core: figure 7 NewReno flows delivered nothing")
	}
	res.Deficit = 1 - float64(res.PacedTotalPkts)/float64(res.NewRenoTotalPkts)
	return res, nil
}
