package ratectl

import (
	"math"
	"testing"

	"repro/internal/sim"
)

const ampleRecv = 1e12 // recvRate high enough that the 1.5× cap never binds

// TestAIMDTransitionTable drives each detector verdict from each operating
// region and checks the observable region/rate behavior.
func TestAIMDTransitionTable(t *testing.T) {
	t.Run("hold+normal→increase", func(t *testing.T) {
		c := NewAIMDController(1e5, 1e4, 0)
		c.Update(StateNormal, ampleRecv, sim.Time(sim.Second))
		if c.state != RateIncrease {
			t.Fatalf("region = %v, want increase", c.state)
		}
	})
	t.Run("hold+underuse→hold", func(t *testing.T) {
		c := NewAIMDController(1e5, 1e4, 0)
		c.Update(StateUnderuse, ampleRecv, sim.Time(sim.Second))
		if c.state != RateHold || c.Rate() != 1e5 {
			t.Fatalf("region %v rate %.0f, want hold at 1e5", c.state, c.Rate())
		}
	})
	t.Run("increase+underuse→hold", func(t *testing.T) {
		c := NewAIMDController(1e5, 1e4, 0)
		c.Update(StateNormal, ampleRecv, sim.Time(sim.Second))
		r := c.Rate()
		c.Update(StateUnderuse, ampleRecv, sim.Time(2*sim.Second))
		if c.state != RateHold || c.Rate() != r {
			t.Fatalf("region %v rate %.0f, want hold at %.0f", c.state, c.Rate(), r)
		}
	})
	t.Run("overuse→decrease-then-hold", func(t *testing.T) {
		c := NewAIMDController(1e6, 1e4, 0)
		c.Update(StateOveruse, 1e6, sim.Time(sim.Second))
		if got, want := c.Rate(), aimdBeta*1e6; got != want {
			t.Fatalf("rate after overuse = %.0f, want β·recvRate = %.0f", got, want)
		}
		if c.state != RateHold || c.Decreases != 1 {
			t.Fatalf("region %v decreases %d, want hold after one cut", c.state, c.Decreases)
		}
		// The cut is acted on once: staying in overuse cuts again from the
		// new recvRate, never compounding from the old target.
		c.Update(StateOveruse, 5e5, sim.Time(2*sim.Second))
		if got, want := c.Rate(), aimdBeta*5e5; got != want {
			t.Fatalf("second cut = %.0f, want %.0f", got, want)
		}
	})
	t.Run("decrease-hold+normal→increase", func(t *testing.T) {
		c := NewAIMDController(1e6, 1e4, 0)
		c.Update(StateOveruse, 1e6, sim.Time(sim.Second))
		r := c.Rate()
		c.Update(StateNormal, ampleRecv, sim.Time(sim.Second).Add(100*ms))
		if c.state != RateIncrease || c.Rate() <= r {
			t.Fatalf("region %v rate %.0f, want growing increase above %.0f", c.state, c.Rate(), r)
		}
	})
}

// TestAIMDStartupMultiplicative: before any capacity estimate exists, one
// second of normal verdicts multiplies the rate by the startup eta.
func TestAIMDStartupMultiplicative(t *testing.T) {
	c := NewAIMDController(1e5, 1e4, 0)
	c.Update(StateNormal, ampleRecv, sim.Time(sim.Second)) // primes dt
	r := c.Rate()
	c.Update(StateNormal, ampleRecv, sim.Time(2*sim.Second))
	if got, want := c.Rate()/r, aimdStartupEta; math.Abs(got-want) > 0.01*want {
		t.Fatalf("growth over 1s = %.3f×, want startup eta %.1f×", got, want)
	}
}

// TestAIMDRecvRateCap: the target never runs more than 50% ahead of what
// the path delivers.
func TestAIMDRecvRateCap(t *testing.T) {
	c := NewAIMDController(1e6, 1e4, 0)
	c.Update(StateNormal, 1e5, sim.Time(sim.Second))
	c.Update(StateNormal, 1e5, sim.Time(2*sim.Second))
	if got := c.Rate(); got > 1.5*1e5 {
		t.Fatalf("rate = %.0f, want ≤ 1.5×recvRate = %.0f", got, 1.5*1e5)
	}
}

// TestAIMDAdditiveNearCapacity: after an overuse has measured capacity,
// growth inside the near-max band is additive with the configured slope.
func TestAIMDAdditiveNearCapacity(t *testing.T) {
	const capacity = 1e6
	c := NewAIMDController(1e5, 1e4, 0)
	now := sim.Time(sim.Second)
	c.Update(StateOveruse, capacity, now) // rate = β·C, capacity learned
	// Climb back into the band.
	for i := 0; i < 200 && c.Rate() < capacity-3*0.03*capacity; i++ {
		now = now.Add(50 * ms)
		c.Update(StateNormal, ampleRecv, now)
	}
	// Inside the band increments must be exactly linear in dt.
	var diffs []float64
	for i := 0; i < 3; i++ {
		r := c.Rate()
		now = now.Add(50 * ms)
		c.Update(StateNormal, ampleRecv, now)
		diffs = append(diffs, c.Rate()-r)
	}
	want := capacity / 8 * 0.05
	for _, d := range diffs {
		if math.Abs(d-want) > 0.1*want {
			t.Fatalf("near-max increments = %v, want additive ≈%.0f per 50ms", diffs, want)
		}
	}
}

// TestAIMDStalenessForget: a capacity estimate no overuse has confirmed
// for aimdCapacityStaleAfter is dropped, switching growth back to
// multiplicative — the fade-lift escape.
func TestAIMDStalenessForget(t *testing.T) {
	const capacity = 1e6
	c := NewAIMDController(1e5, 1e4, 0)
	now := sim.Time(sim.Second)
	c.Update(StateOveruse, capacity, now)
	// Climb into the band, well within the staleness window.
	for i := 0; i < 8; i++ {
		now = now.Add(50 * ms)
		c.Update(StateNormal, ampleRecv, now)
	}
	// Hold (underuse) until the estimate goes stale.
	now = now.Add(aimdCapacityStaleAfter + sim.Second)
	c.Update(StateUnderuse, ampleRecv, now)
	r := c.Rate()
	// The next second of normal verdicts must grow multiplicatively, far
	// beyond the additive slope.
	now = now.Add(sim.Second)
	c.Update(StateNormal, ampleRecv, now)
	now = now.Add(sim.Second)
	c.Update(StateNormal, ampleRecv, now)
	additive := capacity / 8
	if got := c.Rate() - r; got < 2*additive {
		t.Fatalf("growth after staleness = %.0f/s, want multiplicative ≫ additive %.0f/s", got, additive)
	}
}

// TestAIMDClamp: min and max bounds hold through increases and decreases.
func TestAIMDClamp(t *testing.T) {
	c := NewAIMDController(5e4, 4e4, 2e5)
	now := sim.Time(sim.Second)
	for i := 0; i < 20; i++ {
		now = now.Add(sim.Second)
		c.Update(StateNormal, ampleRecv, now)
	}
	if c.Rate() != 2e5 {
		t.Fatalf("rate = %.0f, want max clamp 2e5", c.Rate())
	}
	for i := 0; i < 20; i++ {
		now = now.Add(sim.Second)
		c.Update(StateOveruse, 1e4, now)
		c.Update(StateNormal, 1e4, now.Add(ms))
	}
	if c.Rate() != 4e4 {
		t.Fatalf("rate = %.0f, want min clamp 4e4", c.Rate())
	}
}

// TestLossController covers the backstop's three regimes and its
// post-episode release.
func TestLossController(t *testing.T) {
	t.Run("high-loss-cuts", func(t *testing.T) {
		c := &LossController{}
		c.Reset(1e6, 1e4, 0)
		c.Update(0.2, 1e6)
		if got, want := c.Rate(), 1e6*(1-0.5*0.2); got != want || c.Cuts != 1 {
			t.Fatalf("rate = %.0f cuts %d, want %.0f after one cut", got, c.Cuts, want)
		}
	})
	t.Run("mid-loss-holds", func(t *testing.T) {
		c := &LossController{}
		c.Reset(1e6, 1e4, 0)
		c.Update(0.05, 1e4)
		if c.Rate() != 1e6 || c.Cuts != 0 {
			t.Fatalf("rate = %.0f cuts %d, want hold at 1e6", c.Rate(), c.Cuts)
		}
	})
	t.Run("low-loss-grows", func(t *testing.T) {
		c := &LossController{}
		c.Reset(1e6, 1e4, 0)
		c.Update(0.001, 1e4) // recvRate too low for the release to bind
		if got, want := c.Rate(), 1e6*lossIncreaseFactor; got != want {
			t.Fatalf("rate = %.0f, want %.0f", got, want)
		}
	})
	t.Run("release-after-episode", func(t *testing.T) {
		c := &LossController{}
		c.Reset(1e6, 1e4, 0)
		for i := 0; i < 10; i++ {
			c.Update(0.5, 1e5)
		}
		floor := c.Rate()
		c.Update(0, 8e5) // episode over, path delivering again
		if got, want := c.Rate(), 1.5*8e5; got != want {
			t.Fatalf("rate after release = %.0f (floor was %.0f), want 1.5×recvRate = %.0f",
				got, floor, want)
		}
	})
	t.Run("clamp", func(t *testing.T) {
		c := &LossController{}
		c.Reset(1e6, 9e5, 1.1e6)
		for i := 0; i < 20; i++ {
			c.Update(0.9, 1e4)
		}
		if c.Rate() != 9e5 {
			t.Fatalf("rate = %.0f, want min clamp", c.Rate())
		}
		for i := 0; i < 50; i++ {
			c.Update(0, 1e12)
		}
		if c.Rate() != 1.1e6 {
			t.Fatalf("rate = %.0f, want max clamp", c.Rate())
		}
	})
}
