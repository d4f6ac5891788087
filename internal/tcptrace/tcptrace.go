// Package tcptrace implements the paper's future-work methodology study
// (§6): comparing loss burstiness measured from TCP traces — the approach
// of Paxson's study, which reconstructs loss events from retransmissions —
// against the ground-truth loss process, measured here from the router's
// drop trace of the same run. Because TCP's own transmission process is
// bursty at sub-RTT timescales, the TCP-trace methodology cannot separate
// transport burstiness from loss burstiness; this package quantifies the
// gap the paper predicts.
package tcptrace

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Config sets up the side-by-side measurement.
type Config struct {
	Seed           int64
	Flows          int          // default 8
	BottleneckRate int64        // default 50 Mbps
	RTT            sim.Duration // default 60 ms
	PktSize        int          // default 1000
	Duration       sim.Duration // default 60 s
	Warmup         sim.Duration // default 5 s
}

func (c *Config) fillDefaults() {
	if c.Flows == 0 {
		c.Flows = 8
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 50_000_000
	}
	if c.RTT == 0 {
		c.RTT = 60 * sim.Millisecond
	}
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 5 * sim.Second
	}
}

// Result compares the two methodologies over the same run. The TCP-trace
// count is a biased estimator in both directions: a drop burst inside one
// window collapses into one-retransmission-per-RTT recovery
// (under-count), while go-back-N after a timeout retransmits packets that
// were never dropped (over-count). The paper's CBR methodology avoids
// both biases.
type Result struct {
	// Truth is the analysis of the router's drop trace (our CBR-style
	// ground truth).
	Truth *analysis.Report
	// FromTCP is the analysis of loss times inferred from sender
	// retransmissions (the TCP-trace methodology).
	FromTCP *analysis.Report

	// Drops and Retransmissions count the raw events behind each.
	Drops           int
	Retransmissions int

	// Events is the number of simulated events the world executed.
	Events uint64
}

// Run executes one comparison: N TCP flows share a DropTail bottleneck;
// the router logs every drop (truth) while each sender logs the time of
// every retransmission (the TCP-trace proxy for a loss event).
func Run(cfg Config) (*Result, error) {
	cfg.fillDefaults()
	a := exp.NewArena()
	sched := a.Scheduler()

	delays := make([]sim.Duration, cfg.Flows)
	for i := range delays {
		// ±20% RTT spread, as in the core experiments.
		frac := 0.8 + 0.4*float64(i)/float64(maxI(cfg.Flows-1, 1))
		delays[i] = sim.Duration(frac * float64(cfg.RTT) / 2)
	}
	buffer := netsim.BDP(cfg.BottleneckRate, cfg.RTT, cfg.PktSize) / 2
	if buffer < 8 {
		buffer = 8
	}
	d := topo.NewDumbbell(a, sched, netsim.DumbbellConfig{
		BottleneckRate: cfg.BottleneckRate,
		AccessRate:     10 * cfg.BottleneckRate,
		AccessDelays:   delays,
		Buffer:         buffer,
	})

	warm := sim.Time(cfg.Warmup)
	truth := &trace.Recorder{}
	d.Forward.OnDrop = func(p *netsim.Packet, at sim.Time) {
		if at >= warm {
			truth.Add(trace.LossEvent{At: at, Flow: p.Flow, Seq: p.Seq, Size: p.Size})
		}
	}

	// Wrap each sender's output to log retransmission times: exactly the
	// information a packet trace of the sender reveals.
	inferred := &trace.Recorder{}
	flows := make([]*tcp.Flow, cfg.Flows)
	for i := range flows {
		flows[i] = tcp.NewPairFlow(sched, d.SenderNode(i), d.ReceiverNode(i), i+1, tcp.Config{
			PktSize:         cfg.PktSize,
			InitialRTT:      2 * delays[i],
			InitialSSThresh: float64(buffer),
		})
		snd := flows[i].Sender
		flowID := i + 1
		orig := snd.Out()
		snd.SetOut(netsim.HandlerFunc(func(p *netsim.Packet) {
			if p.Retrans && sched.Now() >= warm {
				inferred.Add(trace.LossEvent{At: sched.Now(), Flow: flowID,
					Seq: p.Seq, Size: p.Size})
			}
			orig.Handle(p)
		}))
		flows[i].StartAt(sched, sim.Time(sim.Duration(i)*250*sim.Millisecond))
	}

	sched.RunUntil(sim.Time(cfg.Duration))

	if truth.Len() < 2 || inferred.Len() < 2 {
		return nil, fmt.Errorf("tcptrace: too few events (drops=%d retr=%d)",
			truth.Len(), inferred.Len())
	}
	// Retransmissions from different flows interleave; sort before
	// analysis (the router trace is already ordered).
	inferred.SortByTime()

	truthRep, err := analysis.AnalyzeTrace(truth, cfg.RTT, analysis.Config{})
	if err != nil {
		return nil, err
	}
	tcpRep, err := analysis.AnalyzeTrace(inferred, cfg.RTT, analysis.Config{})
	if err != nil {
		return nil, err
	}
	return &Result{
		Truth:           truthRep,
		FromTCP:         tcpRep,
		Drops:           truth.Len(),
		Retransmissions: inferred.Len(),
		Events:          sched.Fired(),
	}, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
