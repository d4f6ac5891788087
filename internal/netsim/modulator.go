package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/sim"
)

// RateStep is one entry of a piecewise-constant link schedule: at offset At
// from LinkModulator.Start, the link's rate and/or propagation delay change
// to the given values. A zero Rate keeps the current rate and a zero Delay
// keeps the current delay, so a step can retune either parameter alone (a
// genuine retune *to* zero delay is not expressible; no trace in the
// repository needs one).
type RateStep struct {
	At    sim.Duration // offset from Start
	Rate  int64        // bits per second; 0 keeps the current rate
	Delay sim.Duration // propagation delay; 0 keeps the current delay
}

// modProgram discriminates the modulator's schedule type.
type modProgram uint8

const (
	modSteps modProgram = iota
	modWalk
)

// LinkModulator retunes a Link's rate (and, for step schedules, delay) over
// simulated time, driven by the world's scheduler. It is how time-varying
// paths — wireless rate adaptation, cellular bandwidth traces, backbone
// outages — enter the otherwise-static netsim substrate.
//
// A retune only affects packets that start serializing after it: the
// packet currently on the wire keeps the transmission time it was
// scheduled with, and deliveries already in flight keep their old
// propagation delay (so a delay *decrease* can reorder deliveries, exactly
// as a real route change does). Packet conservation is untouched — a
// modulated port still forwards or drops every packet offered to it.
//
// Like every component of a world, a modulator belongs to the goroutine
// that owns its scheduler, and its random-walk stream must come from a
// seeded rng derived for it alone (topo.Build derives one per direction),
// so modulated worlds stay a pure function of (spec, seed).
type LinkModulator struct {
	sched   *sim.Scheduler
	link    *Link
	program modProgram

	// Step schedule.
	steps     []RateStep
	idx       int
	loopEvery sim.Duration // 0 = run the schedule once

	// Random walk.
	min, max int64
	interval sim.Duration
	rng      *rand.Rand
	logStep  float64
	cur      float64

	base    sim.Time // Start time (advanced by loopEvery on each wrap)
	tick    func()   // created once; every retune re-arms it
	timer   sim.Timer
	started bool

	// Retunes counts applied schedule entries / ticks, for tests and
	// instrumentation.
	Retunes uint64
}

// NewStepModulator builds a piecewise-constant schedule over link. Steps
// must be non-empty with strictly increasing non-negative offsets and
// non-negative rates/delays. A positive loopEvery restarts the schedule
// that long after Start (and again after every wrap); it must be at least
// the last step's offset so time never runs backwards. The modulator is
// inert until Start.
func NewStepModulator(sched *sim.Scheduler, link *Link, steps []RateStep, loopEvery sim.Duration) *LinkModulator {
	m := newModulator(sched, link, modSteps)
	if len(steps) == 0 {
		panic("netsim: step modulator needs at least one step")
	}
	for i, s := range steps {
		if s.At < 0 || s.Rate < 0 || s.Delay < 0 {
			panic(fmt.Sprintf("netsim: step %d has negative At/Rate/Delay", i))
		}
		if i > 0 && s.At <= steps[i-1].At {
			panic(fmt.Sprintf("netsim: step %d offset %v not after step %d (%v)",
				i, s.At, i-1, steps[i-1].At))
		}
	}
	if loopEvery < 0 || (loopEvery > 0 && loopEvery < steps[len(steps)-1].At) {
		panic(fmt.Sprintf("netsim: loop period %v shorter than the schedule (last step at %v)",
			loopEvery, steps[len(steps)-1].At))
	}
	m.steps = steps
	m.loopEvery = loopEvery
	return m
}

// NewRandomWalk builds a seeded multiplicative random walk: every interval
// the rate is multiplied by a factor drawn log-uniformly from
// [1/step, step] and clamped to [min, max] — the shape of 802.11-style
// rate adaptation. Bounds must satisfy 0 < min ≤ max, step must exceed 1,
// interval must be positive and rng must be non-nil (derive it with
// sim.SubSeed so the walk has its own stream). The walk starts from the
// link's rate at Start, clamped into the bounds. Inert until Start.
func NewRandomWalk(sched *sim.Scheduler, link *Link, min, max int64, step float64, interval sim.Duration, rng *rand.Rand) *LinkModulator {
	m := newModulator(sched, link, modWalk)
	if min <= 0 || max < min {
		panic(fmt.Sprintf("netsim: random-walk bounds [%d, %d] invalid", min, max))
	}
	if step <= 1 {
		panic(fmt.Sprintf("netsim: random-walk step factor %v must exceed 1", step))
	}
	if interval <= 0 {
		panic("netsim: random-walk interval must be positive")
	}
	if rng == nil {
		panic("netsim: random-walk needs a seeded rng")
	}
	m.min, m.max = min, max
	m.interval = interval
	m.logStep = math.Log(step)
	m.rng = rng
	return m
}

func newModulator(sched *sim.Scheduler, link *Link, p modProgram) *LinkModulator {
	if sched == nil || link == nil {
		panic("netsim: modulator requires a scheduler and a link")
	}
	m := &LinkModulator{sched: sched, link: link, program: p}
	m.tick = m.onTick
	return m
}

// Start arms the schedule at the current simulated time: step schedules
// fire their first entry at its offset from now, walks tick an interval
// from now (the link keeps its configured rate until then). Starting
// twice panics.
func (m *LinkModulator) Start() {
	if m.started {
		panic("netsim: modulator started twice")
	}
	m.started = true
	m.base = m.sched.Now()
	switch m.program {
	case modSteps:
		m.idx = 0
		m.timer = m.sched.At(m.base.Add(m.steps[0].At), m.tick)
	default:
		m.cur = clampF(float64(m.link.Rate), float64(m.min), float64(m.max))
		m.timer = m.sched.After(m.interval, m.tick)
	}
}

func (m *LinkModulator) onTick() {
	switch m.program {
	case modSteps:
		s := m.steps[m.idx]
		m.link.Retune(s.Rate, s.Delay)
		m.Retunes++
		m.idx++
		if m.idx == len(m.steps) {
			if m.loopEvery == 0 {
				m.started = false
				return
			}
			m.idx = 0
			m.base = m.base.Add(m.loopEvery)
		}
		m.timer = m.sched.Rearm(m.base.Add(m.steps[m.idx].At))
	case modWalk:
		u := 2*m.rng.Float64() - 1
		m.cur = clampF(m.cur*math.Exp(u*m.logStep), float64(m.min), float64(m.max))
		m.setRate(m.cur)
		m.timer = m.sched.Rearm(m.sched.Now().Add(m.interval))
	}
}

func (m *LinkModulator) setRate(r float64) {
	rate := int64(math.Round(clampF(r, float64(m.min), float64(m.max))))
	if rate < 1 {
		rate = 1 // Link.TxTime divides by Rate; the clamp keeps it legal
	}
	m.link.Retune(rate, 0)
	m.Retunes++
}

func clampF(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
