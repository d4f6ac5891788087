package ratectl

import "repro/internal/sim"

// State is the overuse detector's bandwidth-usage verdict, the signal the
// AIMD rate controller consumes.
type State int8

// Detector states.
const (
	// StateNormal: the delay gradient is inside the threshold band.
	StateNormal State = iota
	// StateOveruse: the gradient has stayed above the adaptive threshold
	// for the hold time while not decreasing — the bottleneck queue is
	// growing.
	StateOveruse
	// StateUnderuse: the gradient is below the negative threshold — the
	// queue is draining and the controller should hold rather than grow.
	StateUnderuse
)

func (s State) String() string {
	switch s {
	case StateNormal:
		return "normal"
	case StateOveruse:
		return "overuse"
	case StateUnderuse:
		return "underuse"
	default:
		return "unknown"
	}
}

// Overuse detector tuning, from the GCC draft's reference values.
const (
	// detectorInitialThreshold is γ(0) in milliseconds.
	detectorInitialThreshold = 12.5
	// detectorKUp / detectorKDown drive the threshold adaptation: the
	// threshold chases |offset| slowly upward when the offset escapes the
	// band (so self-inflicted delay does not trigger endless overuse) and
	// decays faster when the offset is back inside.
	detectorKUp   = 0.0087
	detectorKDown = 0.039
	// detectorMinThreshold / detectorMaxThreshold clamp the adaptation.
	detectorMinThreshold = 6.0
	detectorMaxThreshold = 600.0
	// detectorAdaptCap skips adaptation on wild outliers (> γ + 15 ms),
	// which would otherwise drag the threshold far from the operating
	// point in one step.
	detectorAdaptCap = 15.0
	// DetectorHoldTime is how long the offset must stay above threshold
	// before overuse is declared — the hysteresis that suppresses
	// single-group flaps (pinned by TestDetectorHoldTime).
	DetectorHoldTime = 10 * sim.Millisecond
	// detectorMaxAdaptStep bounds one adaptation step's time delta (ms):
	// after an arrival gap the threshold must not jump.
	detectorMaxAdaptStep = 100.0
)

// OveruseDetector turns the estimator's offset signal into the
// normal/overuse/underuse state machine of the GCC draft: an adaptive
// threshold γ(i) defines the dead band, overuse requires the offset to
// exceed γ for DetectorHoldTime without decreasing, and underuse fires
// immediately (a draining queue is good news that should be acted on at
// once). The zero value is NOT ready; use NewOveruseDetector or Reset.
type OveruseDetector struct {
	threshold  float64 // γ(i), ms
	state      State
	prevOffset float64
	aboveSince sim.Time // when the offset first exceeded γ, 0 = not above
	lastUpdate sim.Time
	hasUpdate  bool

	// Statistics.
	Transitions uint64 // state changes observed
	OveruseHits uint64 // updates that declared overuse
}

// NewOveruseDetector returns a detector in its initial state.
func NewOveruseDetector() *OveruseDetector {
	d := &OveruseDetector{}
	d.Reset()
	return d
}

// Reset rewinds the detector to its just-built state.
func (d *OveruseDetector) Reset() {
	*d = OveruseDetector{threshold: detectorInitialThreshold}
}

// Update feeds one offset estimate (ms) observed at the given time and
// returns the new state.
func (d *OveruseDetector) Update(offset float64, now sim.Time) State {
	next := d.state
	switch {
	case offset > d.threshold:
		// Candidate overuse: require persistence and a non-decreasing
		// offset before declaring.
		if d.aboveSince == 0 {
			d.aboveSince = now
		}
		if now.Sub(d.aboveSince) >= DetectorHoldTime && offset >= d.prevOffset {
			next = StateOveruse
		}
		// Otherwise keep the previous state: a short excursion above γ
		// (or a falling offset) never flips to overuse.
	case offset < -d.threshold:
		d.aboveSince = 0
		next = StateUnderuse
	default:
		d.aboveSince = 0
		next = StateNormal
	}
	d.adaptThreshold(offset, now)
	d.prevOffset = offset
	if next != d.state {
		d.Transitions++
		d.state = next
	}
	if d.state == StateOveruse {
		d.OveruseHits++
	}
	return d.state
}

// adaptThreshold drifts γ toward |offset|: up (slowly, kUp) while the
// offset sits outside the band so a delay-based flow sharing the
// bottleneck with loss-based traffic is not starved by its own signal,
// and down (faster, kDown) when the offset returns inside.
func (d *OveruseDetector) adaptThreshold(offset float64, now sim.Time) {
	if !d.hasUpdate {
		d.hasUpdate = true
		d.lastUpdate = now
		return
	}
	abs := offset
	if abs < 0 {
		abs = -abs
	}
	if abs > d.threshold+detectorAdaptCap {
		d.lastUpdate = now
		return
	}
	k := detectorKDown
	if abs > d.threshold {
		k = detectorKUp
	}
	dt := millis(now.Sub(d.lastUpdate))
	if dt > detectorMaxAdaptStep {
		dt = detectorMaxAdaptStep
	}
	d.threshold += k * (abs - d.threshold) * dt
	if d.threshold < detectorMinThreshold {
		d.threshold = detectorMinThreshold
	} else if d.threshold > detectorMaxThreshold {
		d.threshold = detectorMaxThreshold
	}
	d.lastUpdate = now
}
