package topo

// Fleet parameter jitter: ScaleSpec applies a ScenarioConfig's
// Rate/RTT/LossScale multipliers to a built Spec, producing the jittered
// neighbor of a nominal world. Everything it changes is parametric in
// the Compile/Instantiate/Reset sense — rates, delays, dynamics bounds,
// loss-chain entry rates — so a jittered spec Resets onto the arena's
// cached world exactly like the nominal one; the structural key never
// moves.

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// EffScales returns the config's effective jitter multipliers, mapping
// the zero value to the nominal 1.0.
func (c ScenarioConfig) EffScales() (rate, rtt, loss float64) {
	rate, rtt, loss = c.RateScale, c.RTTScale, c.LossScale
	if rate == 0 {
		rate = 1
	}
	if rtt == 0 {
		rtt = 1
	}
	if loss == 0 {
		loss = 1
	}
	return rate, rtt, loss
}

// ScaleRate scales a link rate, clamping to at least 1 bit/s. The
// nominal scale 1 is an exact no-op.
func ScaleRate(r int64, s float64) int64 {
	if s == 1 {
		return r
	}
	r = int64(float64(r) * s)
	if r < 1 {
		r = 1
	}
	return r
}

// ScaleDuration scales a delay; the nominal scale 1 is an exact no-op.
func ScaleDuration(d sim.Duration, s float64) sim.Duration {
	if s == 1 {
		return d
	}
	return sim.Duration(float64(d) * s)
}

// scaleProb scales a probability, clamping to [0, 1].
func scaleProb(p, s float64) float64 {
	if s == 1 {
		return p
	}
	p *= s
	if p > 1 {
		p = 1
	}
	return p
}

// ScaleSpec returns spec with the given multipliers applied: link rates
// (including dynamics schedules and walk bounds) by rate,
// propagation delays by rtt, and the Gilbert–Elliott Good→Bad entry
// probability by loss (the bad-state dwell is untouched, so loss jitter
// changes how often bursts start, not their shape). Queue limits are
// deliberately untouched — see ScenarioConfig. With all scales nominal
// the input is returned unchanged, byte for byte; otherwise the links
// (and any nested dynamics/loss programs) are deep-copied, never
// mutating the caller's spec.
func ScaleSpec(spec Spec, rate, rtt, loss float64) Spec {
	if rate == 1 && rtt == 1 && loss == 1 {
		return spec
	}
	links := make([]LinkSpec, len(spec.Links))
	for i, l := range spec.Links {
		l.AB = scaleDir(l.AB, rate, rtt, loss)
		l.BA = scaleDir(l.BA, rate, rtt, loss)
		links[i] = l
	}
	spec.Links = links
	return spec
}

// scaleDir scales one direction, deep-copying nested programs. A zero
// (mirroring) reverse Dir stays zero: it inherits the scaled forward
// direction through LinkSpec.mirrored as before.
func scaleDir(d Dir, rate, rtt, loss float64) Dir {
	if d.Rate == 0 {
		return d
	}
	d.Rate = ScaleRate(d.Rate, rate)
	d.Delay = ScaleDuration(d.Delay, rtt)
	if dyn := d.Dynamics; dyn != nil {
		c := *dyn
		if dyn.Steps != nil {
			c.Steps = make([]netsim.RateStep, len(dyn.Steps))
			for i, s := range dyn.Steps {
				if s.Rate != 0 {
					s.Rate = ScaleRate(s.Rate, rate)
				}
				if s.Delay != 0 {
					s.Delay = ScaleDuration(s.Delay, rtt)
				}
				c.Steps[i] = s
			}
		}
		if dyn.Walk != nil {
			w := *dyn.Walk
			w.Min = ScaleRate(w.Min, rate)
			w.Max = ScaleRate(w.Max, rate)
			c.Walk = &w
		}
		d.Dynamics = &c
	}
	if ls := d.Loss; ls != nil {
		c := *ls
		c.PGB = scaleProb(ls.PGB, loss)
		d.Loss = &c
	}
	return d
}
