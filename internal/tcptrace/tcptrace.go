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

// The measured world: a 50 Mbps DropTail bottleneck with 10× access
// links, flow RTTs spread ±20% around traceRTT, 1000-byte segments, and
// the first traceWarmup left out of both traces.
const (
	traceRate    = 50_000_000
	traceRTT     = 60 * sim.Millisecond
	tracePktSize = 1000
	traceWarmup  = 5 * sim.Second
)

// Config sets up the side-by-side measurement. The run draws nothing
// random, so it takes no seed.
type Config struct {
	Flows    int          // default 8
	Duration sim.Duration // default 60 s
}

func (c *Config) fillDefaults() {
	if c.Flows == 0 {
		c.Flows = 8
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
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

	delays := netsim.SpreadAccessDelays(cfg.Flows, traceRTT)
	buffer := netsim.BDPBuffer(0.5, traceRate, traceRTT, tracePktSize)
	d := topo.NewDumbbell(a, sched, netsim.DumbbellConfig{
		BottleneckRate: traceRate,
		AccessRate:     10 * traceRate,
		AccessDelays:   delays,
		Buffer:         buffer,
	})

	warm := sim.Time(traceWarmup)
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
			PktSize:         tracePktSize,
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

	truthRep, err := analysis.AnalyzeTrace(truth, traceRTT, analysis.Config{})
	if err != nil {
		return nil, err
	}
	tcpRep, err := analysis.AnalyzeTrace(inferred, traceRTT, analysis.Config{})
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
