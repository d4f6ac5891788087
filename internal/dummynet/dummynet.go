// Package dummynet models the measurement clock of the paper's second
// environment: a Dummynet router (Rizzo 1997) on FreeBSD, whose kernel
// timestamps drops from a HZ=1000 tick counter, so the recorded loss
// trace is quantized to 1 ms. The environment's other non-ideality,
// per-packet processing noise, is a netsim.Port's ProcNoise hook
// (netsim.UniformNoise); the dumbbell runner in internal/topo/scenarios
// applies both for Figure 3.
package dummynet

import "repro/internal/sim"

// Quantize rounds t down to the previous clock tick, the way a kernel
// timestamp taken from a HZ counter does.
func Quantize(t sim.Time, resolution sim.Duration) sim.Time {
	if resolution <= 0 {
		return t
	}
	return t - sim.Time(int64(t)%int64(resolution))
}
