package topo

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/lossmodel"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// DynamicsSpec declares a time-varying program for one link direction.
// Exactly one of Steps, Oscillate or Walk must be set. The builder turns
// it into a netsim.LinkModulator started at build time, with the
// random-walk stream seeded from the build seed and the link's position —
// a dynamic Spec stays a pure function of (Spec, seed).
//
// A direction whose reverse Dir is zero mirrors the forward DynamicsSpec
// too (like its queue spec): the builder creates an independent modulator
// per direction, each with its own derived seed.
type DynamicsSpec struct {
	// Steps is a piecewise-constant rate/delay schedule, offsets relative
	// to the world's start (see netsim.RateStep; zero fields keep the
	// current value). Bandwidth-trace scenarios load these with
	// ParseBandwidthTrace.
	Steps []netsim.RateStep
	// Loop, when positive, restarts the step schedule every Loop of
	// simulated time; it must be at least the last step's offset. Zero
	// runs the schedule once and then holds the final parameters.
	Loop sim.Duration
	// Oscillate, when non-nil, samples a sinusoid between its bounds.
	Oscillate *OscillateSpec
	// Walk, when non-nil, runs a seeded multiplicative random walk.
	Walk *WalkSpec
}

// OscillateSpec is a sampled-sinusoid rate program: every Interval the
// rate is set to the sinusoid through [Min, Max] with the given Period.
type OscillateSpec struct {
	// Min and Max bound the rate in bits per second (0 < Min ≤ Max).
	Min, Max int64
	// Period is the sinusoid's full cycle; Interval the sampling step.
	Period, Interval sim.Duration
}

// WalkSpec is a seeded multiplicative random walk — the shape of wireless
// rate adaptation: every Interval the rate is multiplied by a factor drawn
// log-uniformly from [1/Factor, Factor] and clamped to [Min, Max].
type WalkSpec struct {
	// Min and Max bound the rate in bits per second (0 < Min ≤ Max).
	Min, Max int64
	// Factor is the per-tick multiplicative spread (> 1).
	Factor float64
	// Interval is the tick spacing.
	Interval sim.Duration
}

// validate reports the first inconsistency in the dynamics program.
func (d *DynamicsSpec) validate() error {
	set := 0
	if d.Steps != nil {
		set++
	}
	if d.Oscillate != nil {
		set++
	}
	if d.Walk != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("dynamics must set exactly one of Steps, Oscillate, Walk (got %d)", set)
	}
	switch {
	case d.Steps != nil:
		if len(d.Steps) == 0 {
			return fmt.Errorf("dynamics step schedule is empty")
		}
		for i, s := range d.Steps {
			if s.At < 0 || s.Rate < 0 || s.Delay < 0 {
				return fmt.Errorf("dynamics step %d has negative At/Rate/Delay", i)
			}
			if i > 0 && s.At <= d.Steps[i-1].At {
				return fmt.Errorf("dynamics step %d offset %v not after step %d", i, s.At, i-1)
			}
		}
		if d.Loop < 0 || (d.Loop > 0 && d.Loop < d.Steps[len(d.Steps)-1].At) {
			return fmt.Errorf("dynamics loop %v shorter than the schedule", d.Loop)
		}
	case d.Oscillate != nil:
		o := d.Oscillate
		if d.Loop != 0 {
			return fmt.Errorf("dynamics Loop only applies to Steps")
		}
		if o.Min <= 0 || o.Max < o.Min {
			return fmt.Errorf("oscillation bounds [%d, %d] invalid", o.Min, o.Max)
		}
		if o.Period <= 0 || o.Interval <= 0 {
			return fmt.Errorf("oscillation period and interval must be positive")
		}
	case d.Walk != nil:
		w := d.Walk
		if d.Loop != 0 {
			return fmt.Errorf("dynamics Loop only applies to Steps")
		}
		if w.Min <= 0 || w.Max < w.Min {
			return fmt.Errorf("random-walk bounds [%d, %d] invalid", w.Min, w.Max)
		}
		if w.Factor <= 1 {
			return fmt.Errorf("random-walk factor %v must exceed 1", w.Factor)
		}
		if w.Interval <= 0 {
			return fmt.Errorf("random-walk interval must be positive")
		}
	}
	return nil
}

// LossSpec attaches a stateful Gilbert–Elliott link-layer loss process to
// one link direction (see internal/lossmodel): PGB/PBG are the per-packet
// Good→Bad / Bad→Good transition probabilities, KGood/KBad the per-state
// loss probabilities. The builder seeds each direction's chain from the
// build seed and the link's position and installs its Lost method as the
// port's LinkLoss hook, so wire losses surface through the same OnDrop
// observer as queue drops.
type LossSpec struct {
	PGB, PBG, KGood, KBad float64
}

// BernoulliLoss is the independent-loss special case: a chain whose two
// states lose with the same probability p.
func BernoulliLoss(p float64) *LossSpec { return &LossSpec{KGood: p, KBad: p} }

// params converts to the lossmodel parameter bundle.
func (l *LossSpec) params() lossmodel.GEParams {
	return lossmodel.GEParams{PGB: l.PGB, PBG: l.PBG, KGood: l.KGood, KBad: l.KBad}
}

// buildDynamics realizes a validated DynamicsSpec as a started modulator.
// seed feeds the random walk's stream (unused by the deterministic
// programs).
func buildDynamics(sched *sim.Scheduler, link *netsim.Link, d *DynamicsSpec, seed int64) *netsim.LinkModulator {
	var m *netsim.LinkModulator
	switch {
	case d.Steps != nil:
		m = netsim.NewStepModulator(sched, link, d.Steps, d.Loop)
	case d.Oscillate != nil:
		o := d.Oscillate
		m = netsim.NewOscillator(sched, link, o.Min, o.Max, o.Period, o.Interval)
	default:
		w := d.Walk
		m = netsim.NewRandomWalk(sched, link, w.Min, w.Max, w.Factor, w.Interval, sim.NewRand(seed))
	}
	m.Start()
	return m
}

// ParseBandwidthTrace parses the repository's bandwidth-trace format into
// a step schedule: one "<seconds> <mbps>" pair per line, '#' starting a
// comment, blank lines ignored. Offsets must be non-negative, strictly
// increasing and within sim.Duration's range; rates must be at least 1 bps
// and within int64's range in bps; NaN and infinities are rejected. The
// checked-in cellular trace under internal/topo/scenarios/testdata is the
// reference instance.
func ParseBandwidthTrace(data []byte) ([]netsim.RateStep, error) {
	var steps []netsim.RateStep
	sc := bufio.NewScanner(bytes.NewReader(data))
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("trace line %d: want \"<seconds> <mbps>\", got %q", lineno, line)
		}
		// The range tests are written so that NaN fails them, and so that
		// what passes converts to an integer without overflow: a time must
		// fit sim.Duration and a rate must be at least 1 bps (a zero Rate is
		// RateStep's "keep the current rate").
		secs, err := strconv.ParseFloat(fields[0], 64)
		ns := secs * float64(sim.Second)
		if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
			return nil, fmt.Errorf("trace line %d: bad time %q", lineno, fields[0])
		}
		mbps, err := strconv.ParseFloat(fields[1], 64)
		bps := mbps * 1e6
		if err != nil || !(bps >= 1 && bps < math.MaxInt64) {
			return nil, fmt.Errorf("trace line %d: bad rate %q", lineno, fields[1])
		}
		at := sim.Duration(ns)
		if n := len(steps); n > 0 && at <= steps[n-1].At {
			return nil, fmt.Errorf("trace line %d: time %v not after %v", lineno, at, steps[n-1].At)
		}
		steps = append(steps, netsim.RateStep{At: at, Rate: int64(bps)})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(steps) == 0 {
		return nil, fmt.Errorf("trace: no bandwidth samples")
	}
	return steps, nil
}
