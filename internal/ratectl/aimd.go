package ratectl

import (
	"math"

	"repro/internal/sim"
)

// RateState is the AIMD controller's operating region, driven by the
// detector state through the GCC draft's transition table:
//
//	            StateOveruse   StateNormal    StateUnderuse
//	RateHold     → Decrease     → Increase     stay Hold
//	RateIncrease → Decrease     stay Increase  → Hold
//	RateDecrease stay Decrease  → Hold         → Hold
type RateState int8

// Controller operating regions.
const (
	// RateHold keeps the rate flat (after underuse: let the queue drain).
	RateHold RateState = iota
	// RateIncrease grows the rate — multiplicatively far from the last
	// known capacity, additively near it.
	RateIncrease
	// RateDecrease backs off multiplicatively from the measured arrival
	// rate.
	RateDecrease
)

func (s RateState) String() string {
	switch s {
	case RateHold:
		return "hold"
	case RateIncrease:
		return "increase"
	case RateDecrease:
		return "decrease"
	default:
		return "unknown"
	}
}

// AIMD controller tuning, from the GCC draft's reference values.
const (
	// aimdEta is the multiplicative increase factor per second.
	aimdEta = 1.08
	// aimdStartupEta is the multiplicative factor used before the first
	// overuse has produced a capacity estimate — the slow-start analog.
	// The 1.5×recvRate cap keeps it honest: the target can at most run
	// 50% ahead of what the path actually delivers.
	aimdStartupEta = 4.0
	// aimdBeta is the decrease factor applied to the measured receive
	// rate on overuse.
	aimdBeta = 0.8
	// aimdMaxIncreaseInterval caps the dt a single increase step may
	// compound over (an idle controller must not explode on wake-up).
	aimdMaxIncreaseInterval = sim.Second
	// aimdNearMaxStddevs: within this many standard deviations of the
	// average decreased rate the controller switches from multiplicative
	// to additive increase.
	aimdNearMaxStddevs = 3.0
	// aimdAvgAlpha is the EWMA weight for the decrease-rate statistics.
	aimdAvgAlpha = 0.05
	// aimdCapacityStaleAfter: a capacity estimate unconfirmed by any
	// overuse for this long is forgotten. Near a stable capacity the
	// detector refreshes the estimate every second or two; a long quiet
	// stretch means the constraint moved (a fade lifted) and the additive
	// creep would otherwise hug the stale estimate for seconds.
	aimdCapacityStaleAfter = 2 * sim.Second
)

// AIMDController is the GCC remote-rate controller: a three-state machine
// (hold / increase / decrease) mapping detector verdicts to target-rate
// updates. It runs receiver-side; the resulting target travels back to the
// sender in RateFeedback. All state is plain scalars, so steady-state
// updates allocate nothing and Reset rewinds it completely.
type AIMDController struct {
	rate     float64 // target rate, bytes/second
	min, max float64
	state    RateState

	lastUpdate sim.Time
	hasUpdate  bool

	// EWMA statistics of the receive rate at decrease time: the
	// controller's memory of where the link capacity last was, used to
	// choose additive vs multiplicative increase.
	avgMaxRate   float64
	varMaxRate   float64
	hasAvgMax    bool
	lastDecrease sim.Time

	// Statistics.
	Decreases uint64
	Increases uint64
}

// NewAIMDController returns a controller starting at initial bytes/second,
// clamped to [min, max] (max <= 0 means unbounded).
func NewAIMDController(initial, min, max float64) *AIMDController {
	c := &AIMDController{}
	c.Reset(initial, min, max)
	return c
}

// Reset rewinds the controller to its just-built state.
func (c *AIMDController) Reset(initial, min, max float64) {
	*c = AIMDController{rate: initial, min: min, max: max, state: RateHold}
	c.clamp()
}

// Rate reports the current target rate in bytes/second.
func (c *AIMDController) Rate() float64 { return c.rate }

// Update applies one detector verdict with the measured receive rate
// (bytes/second; <= 0 when unknown) and returns the new target rate.
func (c *AIMDController) Update(s State, recvRate float64, now sim.Time) float64 {
	c.transition(s)
	dt := sim.Duration(0)
	if c.hasUpdate {
		dt = now.Sub(c.lastUpdate)
		if dt > aimdMaxIncreaseInterval {
			dt = aimdMaxIncreaseInterval
		}
		if dt < 0 {
			dt = 0
		}
	}
	c.lastUpdate = now
	c.hasUpdate = true

	switch c.state {
	case RateIncrease:
		c.Increases++
		// A capacity estimate is only as good as its last confirmation: a
		// rate that has climbed past the near-max band, or an estimate no
		// overuse has refreshed for a while, is stale (a fade lifted).
		// Forget it and probe multiplicatively until the next overuse
		// measures afresh.
		if c.hasAvgMax && (c.rate > c.avgMaxRate+c.bandWidth() ||
			now.Sub(c.lastDecrease) > aimdCapacityStaleAfter) {
			c.hasAvgMax = false
		}
		switch {
		case c.nearMax():
			// Additive probe near known capacity: a gentle fraction of the
			// average max rate per second, scaled by dt. Fades are tracked by
			// the forget rule and the below-band multiplicative ramp, so this
			// slope only needs to creep up on slowly-freed headroom without
			// refilling the queue it just drained.
			c.rate += c.avgMaxRate / 8 * dt.Seconds()
		case !c.hasAvgMax || c.rate < c.belowBand():
			// No capacity estimate yet, or far below the last known one
			// (the tail of a deep fade): multiplicative ramp at the
			// slow-start eta, bounded by the 1.5×recvRate cap.
			c.rate *= math.Pow(aimdStartupEta, dt.Seconds())
		default:
			c.rate *= math.Pow(aimdEta, dt.Seconds())
		}
		// Never run more than 1.5× ahead of what is actually arriving;
		// without this the target diverges during deep fades and takes
		// seconds to come back down.
		if recvRate > 0 && c.rate > 1.5*recvRate {
			c.rate = 1.5 * recvRate
		}
	case RateDecrease:
		c.Decreases++
		base := recvRate
		if base <= 0 {
			base = c.rate
		}
		c.noteMaxRate(base)
		c.lastDecrease = now
		c.rate = aimdBeta * base
		// A decrease is acted on once; the controller then holds until
		// the detector reports again.
		c.state = RateHold
	case RateHold:
		// Flat.
	}
	c.clamp()
	return c.rate
}

// transition applies the draft's state-transition table.
func (c *AIMDController) transition(s State) {
	switch s {
	case StateOveruse:
		c.state = RateDecrease
	case StateUnderuse:
		c.state = RateHold
	case StateNormal:
		if c.state == RateHold {
			c.state = RateIncrease
		}
		// Decrease → Hold happens in Update after the cut is applied.
	}
}

// bandWidth is the half-width of the near-max band: the configured number
// of standard deviations of the decrease-rate statistics, clamped relative
// to the average so the wild capacity swings of the time-varying worlds
// can neither collapse the band to nothing nor widen it to everything.
func (c *AIMDController) bandWidth() float64 {
	sd := math.Sqrt(c.varMaxRate)
	if lo := 0.03 * c.avgMaxRate; sd < lo {
		sd = lo
	}
	if hi := 0.1 * c.avgMaxRate; sd > hi {
		sd = hi
	}
	return aimdNearMaxStddevs * sd
}

// nearMax reports whether the current rate is within the near-max band of
// the average rate at which overuse last struck.
func (c *AIMDController) nearMax() bool {
	if !c.hasAvgMax {
		return false
	}
	w := c.bandWidth()
	return c.rate > c.avgMaxRate-w && c.rate < c.avgMaxRate+w
}

// belowBand is the lower edge of the near-max band, below which the
// controller ramps at the startup eta.
func (c *AIMDController) belowBand() float64 {
	return c.avgMaxRate - c.bandWidth()
}

// noteMaxRate folds a decrease-time receive rate into the capacity EWMA.
func (c *AIMDController) noteMaxRate(r float64) {
	if !c.hasAvgMax {
		c.hasAvgMax = true
		c.avgMaxRate = r
		c.varMaxRate = 0
		return
	}
	d := r - c.avgMaxRate
	c.avgMaxRate += aimdAvgAlpha * d
	c.varMaxRate = (1 - aimdAvgAlpha) * (c.varMaxRate + aimdAvgAlpha*d*d)
}

func (c *AIMDController) clamp() {
	if c.rate < c.min {
		c.rate = c.min
	}
	if c.max > 0 && c.rate > c.max {
		c.rate = c.max
	}
}
