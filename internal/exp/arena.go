package exp

import (
	"repro/internal/analysis"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Arena is the per-worker scratch a sweep threads through its run
// functions: the reusable pieces of a simulated world and its measurement
// pipeline that are expensive to reallocate per replication — the
// scheduler's event freelist, the packet pool's population, the streaming
// analyzer's histogram/reservoir/PMF buffers, the burst tracker's flow
// set, and a sink-mode drop recorder.
//
// Ownership rules:
//
//   - An arena belongs to exactly one sweep worker; Sweep creates one
//     per worker goroutine, so nothing in it is (or needs to be) safe for
//     concurrent use.
//   - Every accessor resets the piece it returns, so state can never leak
//     from one replication into the next — which is what keeps arena-run
//     sweeps bit-identical to fresh-world sweeps for any worker count.
//   - Anything a run RETAINS past its return (a Report kept in a result
//     slice) must be detached first — analysis.Report.Clone — because the
//     arena recycles its scratch on the next run. The one exception is a
//     run that owns its arena outright (topo.NewWorld with a nil arena
//     allocates a fresh one and never reuses it): its recorder and
//     analyzer live as long as the result that points at them.
//
// All fields are lazy: a worker that never asks for a piece never pays
// for it, and a Sweep whose runs ignore the arena costs one empty struct
// per worker.
type Arena struct {
	sched   *sim.Scheduler
	pool    *netsim.PacketPool
	an      *analysis.Streaming
	bursts  *analysis.BurstTracker
	rec     *trace.Recorder
	scratch map[string]any
}

// NewArena returns an empty arena. Sweeps create arenas themselves; the
// constructor exists for single-run callers that want the same reuse
// across hand-rolled loops.
func NewArena() *Arena { return &Arena{} }

// Scheduler returns the arena's scheduler, reset to the empty time-zero
// state (the event freelist and queue capacity survive the reset). The
// reset recovers in-flight packets: any *netsim.Packet riding an abandoned
// event as its argument is recycled into the arena's pool instead of
// leaking, so the pool's population survives world resets intact.
func (a *Arena) Scheduler() *sim.Scheduler {
	if a.sched == nil {
		a.sched = sim.NewScheduler()
		a.sched.SetResetDrain(a.drainArg)
	} else {
		a.sched.Reset()
	}
	return a.sched
}

// drainArg is the scheduler's reset-drain hook: recover abandoned packets
// into the pool, ignore every other argument type. Put is nil-safe, so a
// worker that never touched the pool pays nothing.
func (a *Arena) drainArg(v any) {
	if p, ok := v.(*netsim.Packet); ok {
		a.pool.Put(p)
	}
}

// Pool returns the arena's packet pool. Pools need no reset: Get zeroes
// every packet it hands out, so a recycled population from a previous
// replication is indistinguishable from fresh allocations.
func (a *Arena) Pool() *netsim.PacketPool {
	if a.pool == nil {
		a.pool = netsim.NewPacketPool()
	}
	return a.pool
}

// Recorder returns the arena's drop recorder, reset and with no sink
// installed. On a shared arena it is for sink-mode use inside one run;
// only a run that owns its arena may hand the recorder out in a result.
func (a *Arena) Recorder() *trace.Recorder {
	if a.rec == nil {
		a.rec = &trace.Recorder{}
	} else {
		a.rec.Reset()
	}
	a.rec.SetSink(nil, true)
	return a.rec
}

// Analyzer returns the arena's streaming analyzer, reset for a run with
// the given RTT and config. The error mirrors analysis.Analyze's RTT
// validation.
func (a *Arena) Analyzer(rtt sim.Duration, cfg analysis.Config) (*analysis.Streaming, error) {
	if a.an == nil {
		an, err := analysis.NewStreaming(rtt, cfg)
		if err != nil {
			return nil, err
		}
		a.an = an
		return an, nil
	}
	if err := a.an.Reset(rtt, cfg); err != nil {
		return nil, err
	}
	return a.an, nil
}

// Scratch returns the value cached under key, or nil when nothing is
// stored. It is the read side of the arena's open scratch space (see
// SetScratch).
func (a *Arena) Scratch(key string) any { return a.scratch[key] }

// SetScratch caches an arbitrary reusable value under key for later runs
// on the same arena. Unlike the typed accessors above, scratch values are
// NOT reset on access — the caller owns their rewind discipline. The
// canonical user is topo.NetworkIn, which caches one compiled-and-
// instantiated world per structural shape and Resets it per run; layers
// above exp use this to thread world reuse through a sweep without exp
// importing them (exp cannot import topo — topo's scenario registry
// already imports exp).
func (a *Arena) SetScratch(key string, v any) {
	if a.scratch == nil {
		a.scratch = make(map[string]any)
	}
	a.scratch[key] = v
}

// Bursts returns the arena's burst tracker, reset with the given
// clustering gap.
func (a *Arena) Bursts(maxGap sim.Duration) *analysis.BurstTracker {
	if a.bursts == nil {
		a.bursts = &analysis.BurstTracker{}
	}
	a.bursts.Reset(maxGap)
	return a.bursts
}
