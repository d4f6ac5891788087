package ratectl

import (
	"testing"

	"repro/internal/sim"
)

const ms = sim.Millisecond

// feedOveruse drives the detector into StateOveruse: a sustained,
// non-decreasing offset above the threshold for longer than the hold time.
// Returns the next free timestamp.
func feedOveruse(t *testing.T, d *OveruseDetector, at sim.Time) sim.Time {
	t.Helper()
	off := d.threshold + 5
	for i := 0; i < 4; i++ {
		d.Update(off, at)
		at = at.Add(5 * ms)
	}
	if d.state != StateOveruse {
		t.Fatalf("setup: wanted overuse, got %v", d.state)
	}
	return at
}

// feedUnderuse drives the detector into StateUnderuse (immediate).
func feedUnderuse(t *testing.T, d *OveruseDetector, at sim.Time) sim.Time {
	t.Helper()
	d.Update(-d.threshold-5, at)
	if d.state != StateUnderuse {
		t.Fatalf("setup: wanted underuse, got %v", d.state)
	}
	return at.Add(5 * ms)
}

// TestDetectorStateMachine drives every starting state through every signal
// class and checks the resulting verdict.
func TestDetectorStateMachine(t *testing.T) {
	type signal int
	const (
		sigSustainedAbove signal = iota // above γ, non-decreasing, > hold time
		sigBriefAbove                   // a single group above γ
		sigBelow                        // below −γ
		sigInside                       // inside the dead band
	)
	cases := []struct {
		name  string
		start State
		sig   signal
		want  State
	}{
		{"normal+sustained→overuse", StateNormal, sigSustainedAbove, StateOveruse},
		{"normal+brief→normal", StateNormal, sigBriefAbove, StateNormal},
		{"normal+below→underuse", StateNormal, sigBelow, StateUnderuse},
		{"normal+inside→normal", StateNormal, sigInside, StateNormal},
		{"overuse+sustained→overuse", StateOveruse, sigSustainedAbove, StateOveruse},
		{"overuse+brief→overuse", StateOveruse, sigBriefAbove, StateOveruse},
		{"overuse+below→underuse", StateOveruse, sigBelow, StateUnderuse},
		{"overuse+inside→normal", StateOveruse, sigInside, StateNormal},
		{"underuse+sustained→overuse", StateUnderuse, sigSustainedAbove, StateOveruse},
		{"underuse+brief→underuse", StateUnderuse, sigBriefAbove, StateUnderuse},
		{"underuse+below→underuse", StateUnderuse, sigBelow, StateUnderuse},
		{"underuse+inside→normal", StateUnderuse, sigInside, StateNormal},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := NewOveruseDetector()
			at := sim.Time(ms)
			switch tc.start {
			case StateOveruse:
				at = feedOveruse(t, d, at)
			case StateUnderuse:
				at = feedUnderuse(t, d, at)
			}
			switch tc.sig {
			case sigSustainedAbove:
				off := d.threshold + 5
				// A fresh above-threshold episode: the hold-time clock
				// starts at the first above-γ group.
				for i := 0; i < 4; i++ {
					d.Update(off, at)
					at = at.Add(5 * ms)
				}
			case sigBriefAbove:
				// From overuse the detector is already above γ; one more
				// group continues the episode. From other states a single
				// above-γ group is a flap the hold time must suppress.
				d.Update(d.threshold+5, at)
			case sigBelow:
				d.Update(-d.threshold-5, at)
			case sigInside:
				d.Update(0, at)
			}
			if got := d.state; got != tc.want {
				t.Fatalf("state = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestDetectorHoldTime pins the flap suppression: alternating above/inside
// groups never declare overuse, because each dip resets the hold clock.
func TestDetectorHoldTime(t *testing.T) {
	d := NewOveruseDetector()
	at := sim.Time(ms)
	for i := 0; i < 50; i++ {
		d.Update(d.threshold+5, at)
		at = at.Add(5 * ms)
		d.Update(0, at)
		at = at.Add(5 * ms)
	}
	if d.state == StateOveruse || d.OveruseHits != 0 {
		t.Fatalf("flapping signal declared overuse (state %v, hits %d)", d.state, d.OveruseHits)
	}

	// A decreasing offset above γ must not declare either, however long it
	// persists: overuse requires the queue to still be growing.
	d.Reset()
	at = sim.Time(ms)
	off := d.threshold + 10
	for i := 0; i < 20; i++ {
		d.Update(off, at)
		at = at.Add(5 * ms)
		off -= 0.2
	}
	if d.state == StateOveruse {
		t.Fatalf("decreasing offset declared overuse")
	}
}

// TestDetectorThresholdDrift checks the adaptation: γ chases |offset| up
// slowly while violated, decays down faster inside the band, clamps at the
// floor, and skips wild outliers entirely.
func TestDetectorThresholdDrift(t *testing.T) {
	t.Run("up", func(t *testing.T) {
		d := NewOveruseDetector()
		g0 := d.threshold
		at := sim.Time(ms)
		for i := 0; i < 100; i++ {
			d.Update(g0+10, at) // above γ, below the outlier cap
			at = at.Add(5 * ms)
		}
		if g := d.threshold; g <= g0 || g > g0+10 {
			t.Fatalf("threshold after sustained violation = %.2f, want in (%.2f, %.2f]", g, g0, g0+10)
		}
	})
	t.Run("down-to-floor", func(t *testing.T) {
		d := NewOveruseDetector()
		at := sim.Time(ms)
		for i := 0; i < 2000; i++ {
			d.Update(0, at)
			at = at.Add(5 * ms)
		}
		if g := d.threshold; g != detectorMinThreshold {
			t.Fatalf("threshold after long quiet = %.2f, want floor %.2f", g, detectorMinThreshold)
		}
	})
	t.Run("down-faster-than-up", func(t *testing.T) {
		up := NewOveruseDetector()
		down := NewOveruseDetector()
		at := sim.Time(ms)
		for i := 0; i < 20; i++ {
			up.Update(up.threshold+5, at) // +5 off the band edge
			down.Update(down.threshold-5, at)
			at = at.Add(5 * ms)
		}
		rise := up.threshold - detectorInitialThreshold
		fall := detectorInitialThreshold - down.threshold
		if rise <= 0 || fall <= 0 || fall <= rise {
			t.Fatalf("adaptation asymmetry: rise %.3f, fall %.3f — want 0 < rise < fall", rise, fall)
		}
	})
	t.Run("outlier-skipped", func(t *testing.T) {
		d := NewOveruseDetector()
		g0 := d.threshold
		at := sim.Time(ms)
		d.Update(0, at) // prime lastUpdate
		for i := 0; i < 50; i++ {
			at = at.Add(5 * ms)
			d.Update(g0+detectorAdaptCap+50, at)
		}
		if g := d.threshold; g != g0 {
			t.Fatalf("outlier offsets moved the threshold: %.2f → %.2f", g0, g)
		}
	})
	t.Run("adapt-step-bounded", func(t *testing.T) {
		d := NewOveruseDetector()
		g0 := d.threshold
		d.Update(g0+10, sim.Time(ms))
		// A huge arrival gap must contribute at most detectorMaxAdaptStep
		// milliseconds of drift.
		d.Update(g0+10, sim.Time(ms).Add(30*sim.Second))
		maxRise := detectorKUp * 10 * detectorMaxAdaptStep
		if rise := d.threshold - g0; rise <= 0 || rise > maxRise+1e-9 {
			t.Fatalf("threshold rise over idle gap = %.3f, want in (0, %.3f]", rise, maxRise)
		}
	})
}

// TestDetectorReset pins that Reset rewinds state, threshold and counters.
func TestDetectorReset(t *testing.T) {
	d := NewOveruseDetector()
	at := feedOveruse(t, d, sim.Time(ms))
	feedUnderuse(t, d, at)
	if d.Transitions == 0 {
		t.Fatalf("setup produced no transitions")
	}
	d.Reset()
	if d.state != StateNormal || d.threshold != detectorInitialThreshold ||
		d.Transitions != 0 || d.OveruseHits != 0 {
		t.Fatalf("Reset left state behind: %+v", d)
	}
}
