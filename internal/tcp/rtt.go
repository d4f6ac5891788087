package tcp

import "repro/internal/sim"

// rttEstimator implements the RFC 6298 smoothed RTT / RTO computation with
// Karn's algorithm applied by the caller (retransmitted segments are never
// timed).
type rttEstimator struct {
	srtt   sim.Duration
	rttvar sim.Duration
	valid  bool
}

// Sample feeds one RTT measurement.
func (e *rttEstimator) Sample(rtt sim.Duration) {
	if rtt <= 0 {
		return
	}
	if !e.valid {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.valid = true
		return
	}
	// rttvar = 3/4 rttvar + 1/4 |srtt - rtt|; srtt = 7/8 srtt + 1/8 rtt
	diff := e.srtt - rtt
	if diff < 0 {
		diff = -diff
	}
	e.rttvar = (3*e.rttvar + diff) / 4
	e.srtt = (7*e.srtt + rtt) / 8
}

// SRTT reports the smoothed RTT, or fallback before any sample.
func (e *rttEstimator) SRTT(fallback sim.Duration) sim.Duration {
	if !e.valid {
		return fallback
	}
	return e.srtt
}

// RTO reports the current retransmission timeout (before backoff),
// clamped to [minRTO, maxRTO]; initialRTO before the first sample.
func (e *rttEstimator) RTO() sim.Duration {
	if !e.valid {
		return initialRTO
	}
	rto := e.srtt + 4*e.rttvar
	if rto < minRTO {
		rto = minRTO
	}
	if rto > maxRTO {
		rto = maxRTO
	}
	return rto
}
