// Package probe implements the paper's Internet measurement instrument: a
// constant-rate prober that sends one probe per interval over a path,
// infers losses from the probes that never arrive (their send times are
// exact on the fixed schedule), and validates each measurement by running
// twice — once with 48-byte and once with 400-byte packets — accepting the
// measurement only when the two traces exhibit similar loss patterns
// (the paper's §3.1 protocol).
//
// A probe is not a packet here. Each one is a single send event: the path
// decides at the send instant whether the probe survives and, if it does,
// its one-way delay, and nothing the probe does afterwards feeds back into
// the path. So the send also decides the arrival: a survivor that lands by
// the run's horizon is received, anything else is recorded lost there and
// then. planetlab.Path ignores packet size, so in this model the 48 B and
// 400 B runs differ only in when they sample the path, not in how the path
// treats them.
package probe

import (
	"fmt"

	"repro/internal/planetlab"
	"repro/internal/sim"
)

// RunConfig parameterizes one probing run.
type RunConfig struct {
	PktSize  int          // bytes (the paper used 48 and 400)
	Interval sim.Duration // inter-probe gap (default 1 ms)
	Duration sim.Duration // measurement length (default 5 min, like the paper)
}

func (c *RunConfig) fillDefaults() {
	if c.PktSize == 0 {
		c.PktSize = 48
	}
	if c.Interval == 0 {
		c.Interval = sim.Millisecond
	}
	if c.Duration == 0 {
		c.Duration = 5 * 60 * sim.Second
	}
}

// Result is the outcome of one probing run.
type Result struct {
	PktSize  int
	Interval sim.Duration
	Sent     int64
	Received int64

	// LossSendTimes are the send times of the lost probes, in order: the
	// send time of missing probe k is exactly start + k·interval.
	LossSendTimes []sim.Time

	// PathRTT is carried through for RTT normalization in analysis.
	PathRTT sim.Duration
}

// LossRate reports the fraction of probes lost.
func (r Result) LossRate() float64 {
	if r.Sent == 0 {
		return 0
	}
	return float64(r.Sent-r.Received) / float64(r.Sent)
}

// Intervals returns inter-loss gaps.
func (r Result) Intervals() []sim.Duration {
	if len(r.LossSendTimes) < 2 {
		return nil
	}
	out := make([]sim.Duration, 0, len(r.LossSendTimes)-1)
	for i := 1; i < len(r.LossSendTimes); i++ {
		out = append(out, r.LossSendTimes[i].Sub(r.LossSendTimes[i-1]))
	}
	return out
}

// BackToBackFraction reports the fraction of inter-loss gaps equal to the
// probe interval — the prober's view of loss clustering.
func (r Result) BackToBackFraction() float64 {
	iv := r.Intervals()
	if len(iv) == 0 {
		return 0
	}
	n := 0
	for _, d := range iv {
		if d <= r.Interval {
			n++
		}
	}
	return float64(n) / float64(len(iv))
}

// Run probes the given path once. The path process continues from wherever
// it is (the paper's two validation runs sample the same path at different
// times). The scheduler is advanced past the run.
//
// Probe k leaves at start + k·Interval for every such instant before
// start + Duration; the first leaves inline, the rest from a send event
// that re-arms itself. The send due at or after the stop time fires and
// arms nothing. Each send decides its probe's arrival: a survivor counts
// as received when its one-way delay lands it by the horizon, one RTT plus
// a second after the stop time; a probe the path drops or that would land
// later is lost. The run leaves no event queued.
func Run(sched *sim.Scheduler, path *planetlab.Path, cfg RunConfig) Result {
	if sched == nil || path == nil {
		panic("probe: Run requires scheduler and path")
	}
	cfg.fillDefaults()
	if cfg.Interval < 0 || cfg.Duration < 0 {
		panic("probe: Run needs a positive interval and duration")
	}
	if cfg.PktSize < 0 {
		panic("probe: Run needs a positive packet size")
	}

	stop := sched.Now().Add(cfg.Duration)
	horizon := stop.Add(path.Params.RTT + sim.Second)
	res := Result{
		PktSize:  cfg.PktSize,
		Interval: cfg.Interval,
		PathRTT:  path.Params.RTT,
	}
	var (
		next sim.Timer
		send func()
	)
	send = func() {
		now := sched.Now()
		if now >= stop {
			return
		}
		if path.Transmit(now) && now.Add(path.OneWayDelay()) <= horizon {
			res.Received++
		} else {
			res.LossSendTimes = append(res.LossSendTimes, now)
		}
		res.Sent++
		next = sched.After(cfg.Interval, send)
	}
	send()
	sched.RunUntil(horizon)
	// An interval longer than the drain leaves the stop-time send queued;
	// it must not fire in the scheduler's next run.
	sched.Cancel(next)
	return res
}

// ValidationError describes why a dual-run measurement was rejected.
type ValidationError struct {
	Reason string
	A, B   Result
}

func (e *ValidationError) Error() string {
	return fmt.Sprintf("probe: validation failed: %s (A: p=%.4f b2b=%.2f, B: p=%.4f b2b=%.2f)",
		e.Reason, e.A.LossRate(), e.A.BackToBackFraction(),
		e.B.LossRate(), e.B.BackToBackFraction())
}

// Validate applies the paper's acceptance test: the two runs must exhibit
// similar loss patterns. We require loss rates within a factor of 3 of
// each other (or both tiny) and back-to-back fractions within 0.35
// absolute. (The paper does not publish its thresholds; these are chosen
// to reject pathological asymmetry while tolerating sampling noise over
// 5-minute runs.)
func Validate(a, b Result) error {
	pa, pb := a.LossRate(), b.LossRate()
	const tiny = 1e-4
	if pa < tiny && pb < tiny {
		return nil // both effectively lossless: nothing to compare
	}
	lo, hi := pa, pb
	if lo > hi {
		lo, hi = hi, lo
	}
	if lo == 0 || hi/lo > 3 {
		return &ValidationError{Reason: "loss rates dissimilar", A: a, B: b}
	}
	da := a.BackToBackFraction() - b.BackToBackFraction()
	if da < 0 {
		da = -da
	}
	if da > 0.35 {
		return &ValidationError{Reason: "burstiness dissimilar", A: a, B: b}
	}
	return nil
}

// Measurement is a validated dual-run measurement of one path.
type Measurement struct {
	Small, Large Result
	Valid        bool
}

// MeasurePath runs the full paper protocol on a path: a 48-byte run
// followed by a 400-byte run, then validation. Both runs use the same
// probe interval and duration from cfg (PktSize is overridden).
func MeasurePath(sched *sim.Scheduler, path *planetlab.Path, cfg RunConfig) Measurement {
	small := cfg
	small.PktSize = 48
	a := Run(sched, path, small)
	large := cfg
	large.PktSize = 400
	b := Run(sched, path, large)
	return Measurement{Small: a, Large: b, Valid: Validate(a, b) == nil}
}
