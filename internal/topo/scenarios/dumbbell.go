package scenarios

// The one Figure-1 dumbbell runner: the registered dumbbell, core's
// Figures 2, 3 and 7 and its TFRC and persistent-ECN extensions all build
// their world here, and keep only the mapping of their own config onto
// Dumbbell and the reader of their own results.

import (
	"repro/internal/dummynet"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/ratectl"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
)

// The paper's Figure-1 constants: a 100 Mbps bottleneck with no delay of
// its own, 1 Gbps access links and 50 on–off noise sources.
const (
	dumbbellRate       = 100_000_000
	dumbbellAccessRate = 1_000_000_000
	noiseSources       = 50
)

// Transport is the challenger of a competition world.
type Transport int

// NewReno alone, or NewReno against paced TCP or TFRC.
const (
	NewReno Transport = iota
	Paced
	TFRC
)

// Dumbbell describes one Figure-1 world by the knobs the paper's dumbbell
// runs vary; the seed, duration, warm-up, segment size and fleet jitter
// come from the topo.ScenarioConfig handed to BuildDumbbell.
type Dumbbell struct {
	// Delays are the pairs' access delays, half on each side of the
	// bottleneck. RTT sizes the buffer, seeds every transport's RTT
	// estimate and normalizes the analysis; 0 means the mean of the pairs'
	// base RTTs.
	Delays        []sim.Duration
	RTT           sim.Duration
	BufferBDPFrac float64 // buffer as a fraction of the BDP at RTT
	// Queue builds the forward bottleneck queue for limit packets on a
	// link draining pps packets per second (nil: DropTail). The TCP flows
	// are ECN-capable behind an ECN RED queue.
	Queue func(limit int, pps float64) netsim.Queue
	// ProcNoise jitters the bottleneck's per-packet processing time, and a
	// positive Quantum rounds each recorded drop time down to a router
	// clock of that resolution: Dummynet's two non-idealities.
	ProcNoise func() sim.Duration
	Quantum   sim.Duration
	// Noise is the two-way on–off load as a fraction of capacity, half per
	// direction (0: none), drawn from sim.SubSeed(seed, NoiseTag) forward
	// and NoiseTag+1 in reverse.
	Noise    float64
	NoiseTag int64
	// With no challenger pair i starts at i·Spread/pairs. A challenger runs
	// on the second half of the pairs: NewReno pair i < n = pairs/2 starts
	// at i·Spread/n and challenger pair n+i (Spread/2)/n later.
	// SSThreshAtBuffer caps every TCP flow's initial slow-start threshold
	// at the buffer.
	Spread           sim.Duration
	SSThreshAtBuffer bool
	Challenger       Transport
	PaceQuantum      int // paced challengers' packets per pacing tick
}

// NS2Dumbbell is the paper's NS-2 world (Figure 2) with the given pair
// count; at 16 pairs, the registered dumbbell scenario. Its access delays
// come from U[2 ms, 200 ms] drawn from sim.SubSeed(seed, 1).
func NS2Dumbbell(seed int64, pairs int) Dumbbell {
	return Dumbbell{
		Delays: netsim.RandomAccessDelays(sim.NewRand(sim.SubSeed(seed, 1)), pairs,
			2*sim.Millisecond, 200*sim.Millisecond),
		BufferBDPFrac:    0.5,
		Noise:            0.10,
		NoiseTag:         2,
		Spread:           2 * sim.Second,
		SSThreshAtBuffer: true,
	}
}

// Competition is the competition world of Figure 7 and the TFRC
// extension: n NewReno pairs against n challenger pairs, every pair at
// base RTT rtt, a half-BDP DropTail buffer, no noise, starts within 100 ms.
func Competition(n int, rtt sim.Duration, challenger Transport) Dumbbell {
	delays := make([]sim.Duration, 2*n)
	for i := range delays {
		delays[i] = rtt / 2
	}
	return Dumbbell{Delays: delays, RTT: rtt, BufferBDPFrac: 0.5, Spread: 100 * sim.Millisecond, Challenger: challenger}
}

// DumbbellWorld is a built world with its transports and noise started:
// Finish measures it, Run only runs it.
type DumbbellWorld struct {
	*world
	Bottleneck *netsim.Port // the forward bottleneck port
	// TCP holds the TCP flows in pair order (NewReno, then paced), TFRC
	// the TFRC challengers' senders and receivers.
	TCP           []*tcp.Flow
	TFRCSenders   []*ratectl.TFRCSender
	TFRCReceivers []*ratectl.TFRCReceiver

	cfg     topo.ScenarioConfig
	rtt     sim.Duration
	quantum sim.Duration
}

// BuildDumbbell builds p on the arena (nil: a fresh one, which also
// retains the drop trace) through topo.NewDumbbell, then wires and starts
// its transports and its noise. Fleet jitter scales
// the bottleneck rate, the access delays and the RTT, and leaves the
// buffer at its nominal size, as on every registered scenario. The order
// in which the world is built and its starts are armed is part of the
// output: the scheduler breaks same-time ties by arming order.
func BuildDumbbell(p Dumbbell, cfg topo.ScenarioConfig, a *exp.Arena) *DumbbellWorld {
	cfg.FillDefaults()
	w := newWorld(cfg, a)
	pairs := len(p.Delays)
	rtt := p.RTT
	if rtt == 0 {
		for _, d := range p.Delays {
			rtt += 2 * d
		}
		rtt /= sim.Duration(pairs)
	}
	buffer := netsim.BDPBuffer(p.BufferBDPFrac, dumbbellRate, rtt, cfg.PktSize)
	rate, delays := topo.ScaleRate(dumbbellRate, w.rateScale), p.Delays
	if w.rttScale != 1 {
		delays = make([]sim.Duration, pairs)
		for i, d := range p.Delays {
			delays[i] = topo.ScaleDuration(d, w.rttScale)
		}
	}
	b := &DumbbellWorld{world: w, cfg: cfg, rtt: topo.ScaleDuration(rtt, w.rttScale), quantum: p.Quantum}

	var queue netsim.Queue
	if p.Queue != nil {
		queue = p.Queue(buffer, float64(rate)/float64(cfg.PktSize*8))
	}
	d := w.Dumbbell(netsim.DumbbellConfig{BottleneckRate: rate, AccessRate: dumbbellAccessRate,
		AccessDelays: delays, Buffer: buffer, Queue: queue})
	b.Bottleneck = d.Forward
	d.Forward.ProcNoise = p.ProcNoise

	red, _ := queue.(*netsim.RED)
	base := tcp.Config{PktSize: cfg.PktSize, InitialRTT: b.rtt, ECN: red != nil && red.ECN, Pool: w.Pool}
	if p.SSThreshAtBuffer {
		base.InitialSSThresh = float64(buffer)
	}
	n := pairs
	if p.Challenger != NewReno {
		n = pairs / 2
	}
	for i := 0; i < pairs; i++ {
		if i >= n && p.Challenger == TFRC {
			c := ratectl.TFRCConfig{Flow: i + 1, Src: netsim.SenderAddr(i), Dst: netsim.ReceiverAddr(i),
				PktSize: cfg.PktSize, InitialRTT: b.rtt}
			snd := ratectl.NewTFRCSender(w.Sched, d.SenderNode(i), c)
			rcv := ratectl.NewTFRCReceiver(w.Sched, d.ReceiverNode(i), c)
			d.ReceiverNode(i).Bind(c.Flow, rcv)
			d.SenderNode(i).Bind(c.Flow, snd)
			b.TFRCSenders, b.TFRCReceivers = append(b.TFRCSenders, snd), append(b.TFRCReceivers, rcv)
			continue
		}
		c := base
		c.Paced, c.PaceQuantum = i >= n, p.PaceQuantum
		b.TCP = append(b.TCP, tcp.NewPairFlow(w.Sched, d.SenderNode(i), d.ReceiverNode(i), i+1, c))
	}
	w.flows += pairs

	for i := 0; i < n; i++ {
		if p.Challenger == NewReno {
			b.TCP[i].StartAt(w.Sched, sim.Time(sim.Duration(i)*p.Spread/sim.Duration(pairs)))
			continue
		}
		off := sim.Duration(i) * p.Spread / sim.Duration(n)
		at, late := sim.Time(off), sim.Time(off+p.Spread/2/sim.Duration(n))
		if p.Challenger == TFRC {
			// The TFRC competition arms both starts as events, even at
			// time zero, where StartAt would start the flow inline.
			w.Sched.At(at, b.TCP[i].Sender.Start)
			w.Sched.At(late, b.TFRCSenders[i].Start)
			continue
		}
		b.TCP[i].StartAt(w.Sched, at)
		b.TCP[n+i].StartAt(w.Sched, late)
	}

	if p.Noise > 0 {
		w.absorb(d.Net, "L", "R")
		w.noiseInto(d.Net, d.Forward, noiseSources/2, dumbbellRate, p.Noise/2, 100000,
			netsim.SenderAddr(0), "R", sim.SubSeed(cfg.Seed, p.NoiseTag))
		w.noiseInto(d.Net, d.Reverse, noiseSources-noiseSources/2, dumbbellRate, p.Noise/2, 200000,
			netsim.ReceiverAddr(0), "L", sim.SubSeed(cfg.Seed, p.NoiseTag+1))
	}
	return b
}

// Finish records the bottleneck's post-warm-up drops, on the router clock
// when the world has a Quantum, runs the world to the config's duration
// and measures it; name labels the too-few-drops error. Nothing drops
// before the run starts, so the recorder goes on here.
func (b *DumbbellWorld) Finish(name string) (*topo.ScenarioResult, error) {
	warm := sim.Time(b.cfg.Warmup)
	b.Bottleneck.OnDrop = func(p *netsim.Packet, at sim.Time) {
		if at >= warm {
			b.Record(trace.LossEvent{At: dummynet.Quantize(at, b.quantum), Flow: p.Flow, Seq: p.Seq, Size: p.Size})
		}
	}
	return b.finish(name, b.cfg, b.rtt)
}

// Run runs the world to the config's duration without measuring its drops.
func (b *DumbbellWorld) Run() { b.Sched.RunUntil(sim.Time(b.cfg.Duration)) }
