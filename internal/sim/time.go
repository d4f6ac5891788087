// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate for every experiment in this repository: the
// packet-level network simulator, the Dummynet-style emulation layer and the
// PlanetLab-style Internet path model all schedule their work through a
// single Scheduler. Determinism is guaranteed by (a) an integer nanosecond
// clock, (b) FIFO tie-breaking between events scheduled for the same
// instant, and (c) explicit, seeded random sources owned by the components
// (the engine itself contains no randomness).
//
// Concurrency contract: one simulated world — a Scheduler, the *rand.Rand
// streams feeding it, and every component attached to it — is confined to
// the goroutine that created it. Nothing in this package is safe for
// concurrent use, on purpose: single-threaded worlds are what make runs
// bit-reproducible. Parallelism lives one level up, in internal/exp, which
// runs many independent worlds at once by giving each replication its own
// Scheduler and its own SubSeed-derived seed on its own goroutine.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulated point in time, in nanoseconds since the start of the
// simulation. Using an integer clock avoids the floating-point drift that
// would break determinism in long runs.
type Time int64

// Duration is a span of simulated time in nanoseconds. It is layout
// compatible with time.Duration so the stdlib constants (time.Millisecond,
// ...) convert directly.
type Duration int64

// Common durations, re-exported for convenience so callers do not need to
// import both packages.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Dur converts a time.Duration into a sim.Duration.
func Dur(d time.Duration) Duration { return Duration(d.Nanoseconds()) }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Seconds reports d as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// String formats the time as seconds with nanosecond precision.
func (t Time) String() string { return fmt.Sprintf("%.9fs", t.Seconds()) }

// String formats the duration as seconds with nanosecond precision.
func (d Duration) String() string { return fmt.Sprintf("%.9fs", d.Seconds()) }
