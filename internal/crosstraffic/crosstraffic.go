// Package crosstraffic provides the background noise sources the paper's
// simulations use: two-way exponential on–off UDP flows (50 of them,
// averaging 10% of the bottleneck capacity in the paper's setup). During
// an "on" period a source emits packets at its peak rate; on/off durations
// are exponentially distributed.
package crosstraffic

import (
	"math/rand"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// OnOffConfig parameterizes one exponential on–off source.
type OnOffConfig struct {
	Flow     int
	Src      int
	Dst      int
	PktSize  int          // bytes (default 500)
	PeakRate int64        // bits/second while on
	MeanOn   sim.Duration // mean of the exponential on duration
	MeanOff  sim.Duration // mean of the exponential off duration

	// Pool, when set, supplies the emitted packets; the absorbing sink is
	// expected to recycle them (netsim.PacketPool.Sink). Nil allocates.
	Pool *netsim.PacketPool
}

// OnOff is one exponential on–off source.
type OnOff struct {
	sched *sim.Scheduler
	out   netsim.Handler
	cfg   OnOffConfig
	rng   *rand.Rand

	on       bool
	interval sim.Duration
	sendTmr  sim.Timer
	phaseTmr sim.Timer
	seq      int64
	pktID    uint64
	running  bool

	// Timer callbacks, created once: the send path of 50 noise sources
	// runs at aggregate packet rate and must not allocate per event.
	onSendFn, toOnFn, toOffFn func()

	// Sent counts emitted packets.
	Sent uint64
}

// NewOnOff builds a source. rng must be seeded by the caller.
func NewOnOff(sched *sim.Scheduler, out netsim.Handler, cfg OnOffConfig, rng *rand.Rand) *OnOff {
	if sched == nil || out == nil || rng == nil {
		panic("crosstraffic: NewOnOff requires scheduler, output and rng")
	}
	if cfg.PktSize == 0 {
		cfg.PktSize = 500
	}
	if cfg.PeakRate <= 0 || cfg.MeanOn <= 0 || cfg.MeanOff < 0 {
		panic("crosstraffic: need positive peak rate and mean on-duration")
	}
	interval := sim.Duration(int64(cfg.PktSize) * 8 * int64(sim.Second) / cfg.PeakRate)
	if interval <= 0 {
		interval = sim.Nanosecond
	}
	o := &OnOff{sched: sched, out: out, cfg: cfg, rng: rng, interval: interval}
	o.onSendFn = func() {
		o.sendTmr = sim.Timer{}
		o.emit()
	}
	o.toOnFn = func() {
		o.phaseTmr = sim.Timer{}
		o.enterOn()
	}
	o.toOffFn = func() {
		o.phaseTmr = sim.Timer{}
		o.enterOff()
	}
	return o
}

// Start begins the on/off cycle (starting in the off phase so sources with
// a shared seed don't all fire at t=0).
func (o *OnOff) Start() {
	if o.running {
		return
	}
	o.running = true
	o.enterOff()
}

func (o *OnOff) enterOn() {
	o.on = true
	d := sim.Exponential(o.rng, o.cfg.MeanOn)
	o.phaseTmr = o.sched.After(d, o.toOffFn)
	o.emit()
}

func (o *OnOff) enterOff() {
	o.on = false
	if o.sendTmr.Pending() {
		o.sched.Cancel(o.sendTmr)
		o.sendTmr = sim.Timer{}
	}
	d := sim.Exponential(o.rng, o.cfg.MeanOff)
	o.phaseTmr = o.sched.After(d, o.toOnFn)
}

func (o *OnOff) emit() {
	if !o.on {
		return
	}
	o.pktID++
	p := o.cfg.Pool.Get()
	p.ID = o.pktID
	p.Flow = o.cfg.Flow
	p.Kind = netsim.Data
	p.Size = o.cfg.PktSize
	p.Seq = o.seq
	p.Src = o.cfg.Src
	p.Dst = o.cfg.Dst
	p.SendTime = o.sched.Now()
	o.out.Handle(p)
	o.seq++
	o.Sent++
	o.sendTmr = o.sched.After(o.interval, o.onSendFn)
}

// NoiseSet builds the paper's standard noise ensemble: n on–off sources
// whose aggregate average rate is the given fraction of capacity, split
// evenly, with 50% duty cycle. Flows are numbered flowBase, flowBase+1, …
// and all send from src to dst addresses (packets are absorbed by the
// destination node's default handler). pool, when non-nil, supplies the
// packets; pair it with a recycling sink at the destination.
func NoiseSet(sched *sim.Scheduler, out netsim.Handler, n int, capacity int64,
	fraction float64, flowBase, src, dst int, seed int64, pool *netsim.PacketPool) []*OnOff {

	perFlowAvg := fraction * float64(capacity) / float64(n)
	peak := int64(2 * perFlowAvg) // 50% duty cycle
	if peak <= 0 {
		peak = 1
	}
	srcs := make([]*OnOff, n)
	for i := range srcs {
		rng := sim.NewRand(sim.SubSeed(seed, int64(i)))
		srcs[i] = NewOnOff(sched, out, OnOffConfig{
			Flow:     flowBase + i,
			Src:      src,
			Dst:      dst,
			PktSize:  500,
			PeakRate: peak,
			MeanOn:   500 * sim.Millisecond,
			MeanOff:  500 * sim.Millisecond,
			Pool:     pool,
		}, rng)
	}
	return srcs
}
