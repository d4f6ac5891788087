package ratectl

// Loss-based backstop controller tuning, from the GCC draft's sender-side
// loss controller.
const (
	// lossLowThreshold: below 2% loss the path has headroom.
	lossLowThreshold = 0.02
	// lossHighThreshold: above 10% loss the path is being overrun.
	lossHighThreshold = 0.10
	// lossIncreaseFactor grows the loss-based estimate per report while
	// loss stays low.
	lossIncreaseFactor = 1.05
)

// LossController is the GCC draft's loss-based controller, the backstop
// the delay pipeline needs: a standing full queue (or a capacity collapse
// faster than the feedback loop) has a near-zero delay gradient, so the
// overuse detector reads it as normal while the queue drops a large share
// of the offered load. The loss fraction catches exactly that regime —
// above 10% the estimate is cut multiplicatively, between 2% and 10% it
// holds, below 2% it grows slowly. The reported target is the minimum of
// this estimate and the delay-based AIMD target, so random wire loss
// under 2% (the showdown's Gilbert–Elliott chain) never throttles the
// flow: that immunity is the delay-based transport's whole advantage.
type LossController struct {
	rate     float64
	min, max float64

	// Statistics.
	Cuts uint64
}

// Reset rewinds the controller to its just-built state.
func (c *LossController) Reset(initial, min, max float64) {
	*c = LossController{rate: initial, min: min, max: max}
	c.clamp()
}

// Rate reports the current loss-based estimate in bytes/second.
func (c *LossController) Rate() float64 { return c.rate }

// Update applies one report interval's loss fraction with the measured
// receive rate (bytes/second; <= 0 when unknown) and returns the new
// estimate.
func (c *LossController) Update(lossFraction, recvRate float64) float64 {
	switch {
	case lossFraction > lossHighThreshold:
		c.Cuts++
		c.rate *= 1 - 0.5*lossFraction
	case lossFraction < lossLowThreshold:
		c.rate *= lossIncreaseFactor
		// A backstop must release as soon as the loss episode ends, or it
		// would pin the flow at the episode's floor long after a fade
		// lifts: once loss is low again, jump straight to the 1.5×recvRate
		// ceiling the delay-based controller also honors, leaving the AIMD
		// target as the binding constraint.
		if headroom := 1.5 * recvRate; headroom > c.rate {
			c.rate = headroom
		}
	}
	c.clamp()
	return c.rate
}

func (c *LossController) clamp() {
	if c.rate < c.min {
		c.rate = c.min
	}
	if c.max > 0 && c.rate > c.max {
		c.rate = c.max
	}
}
