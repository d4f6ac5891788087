package topo

import (
	"errors"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ErrTooFewDrops is the cause of a run whose world recorded fewer than two
// post-warmup losses — no inter-loss interval exists, so there is nothing
// to analyze. World.Finish wraps it with the run's name and drop count;
// sweeps and fleets recognize it with errors.Is and skip the run.
var ErrTooFewDrops = errors.New("too few drops to analyze")

// World is the one scaffold every simulated run is built on — the figure
// runners in core and all registered scenarios alike. Its scheduler,
// packet pool, drop recorder, streaming analyzer, burst tracker and cached
// networks always come from an exp.Arena, so a run on a sweep worker's
// warm arena rewinds state instead of rebuilding it, bit-identically to a
// cold run (TestResetEquivalence).
//
// The loss stream is always analyzed online (Finish). The only thing the
// arena argument changes is ownership: NewWorld(nil, …) allocates a fresh
// arena that nothing else will ever reuse, so that run's drop trace is
// additionally retained and handed out in the result.
type World struct {
	// Sched and Pool are the world's scheduler (reset to time zero) and
	// packet freelist; transports and cross traffic are wired onto them.
	Sched *sim.Scheduler
	Pool  *netsim.PacketPool

	arena  *exp.Arena
	rec    *trace.Recorder
	warm   sim.Time
	retain bool
	nets   []*Network // every network built into this world, for Forwarded
}

// NewWorld starts a run on the arena. A nil arena means "allocate a fresh
// one", which also makes the run the owner of its recorder: Finish then
// retains the trace in the result. warmup is the time before which
// ObserveDrops discards losses.
func NewWorld(a *exp.Arena, warmup sim.Duration) *World {
	retain := a == nil
	if retain {
		a = exp.NewArena()
	}
	return &World{
		Sched:  a.Scheduler(),
		Pool:   a.Pool(),
		arena:  a,
		rec:    a.Recorder(),
		warm:   sim.Time(warmup),
		retain: retain,
	}
}

// Network builds spec into the world through the arena's world cache
// (NetworkIn: reset when the arena has seen this shape, instantiated
// otherwise) and attaches the world's packet pool to every port.
func (w *World) Network(spec Spec, seed int64) (*Network, error) {
	net, err := NetworkIn(w.arena, w.Sched, spec, seed)
	if err != nil {
		return nil, err
	}
	net.AttachPool(w.Pool)
	w.nets = append(w.nets, net)
	return net, nil
}

// Dumbbell builds the paper's Figure-1 topology into the world (see
// NewDumbbell) with the world's packet pool attached.
func (w *World) Dumbbell(cfg netsim.DumbbellConfig) *Dumbbell {
	d := NewDumbbell(w.arena, w.Sched, cfg)
	d.AttachPool(w.Pool)
	w.nets = append(w.nets, d.Net)
	return d
}

// Record adds one loss to the world's measurement stream, unconditionally.
// Runs that stamp drops themselves (Figure 3 quantizes to the router
// clock) call it from their own OnDrop hook; everything else uses
// ObserveDrops.
func (w *World) Record(e trace.LossEvent) { w.rec.Add(e) }

// ObserveDrops records post-warmup losses at the given ports. Ports fire
// OnDrop in simulated-time order, so the merged stream stays sorted even
// across multiple bottlenecks.
func (w *World) ObserveDrops(ports ...*netsim.Port) {
	for _, p := range ports {
		p.OnDrop = func(pkt *netsim.Packet, at sim.Time) {
			if at >= w.warm {
				w.rec.Add(trace.LossEvent{At: at, Flow: pkt.Flow, Seq: pkt.Seq, Size: pkt.Size})
			}
		}
	}
}

// Finish runs the world to the given simulated time and analyzes its loss
// process — the one measurement path. The recorder forwards every loss to
// the arena's streaming analyzer and burst tracker (the sink is installed
// before any event fires); a world that owns its arena tees the events
// into the retained trace as well. name labels the too-few-drops error.
func (w *World) Finish(name string, until sim.Duration, meanRTT sim.Duration) (*ScenarioResult, error) {
	an, err := w.arena.Analyzer(meanRTT, analysis.Config{})
	if err != nil {
		return nil, err
	}
	bt := w.arena.Bursts(meanRTT / 4)
	w.rec.SetSink(func(e trace.LossEvent) {
		an.Observe(e)
		bt.Observe(e)
	}, w.retain)
	w.Sched.RunUntil(sim.Time(until))
	if w.rec.Len() < 2 {
		return nil, fmt.Errorf("topo: %s produced %d drops; increase duration or load: %w",
			name, w.rec.Len(), ErrTooFewDrops)
	}
	rep, err := an.Finalize()
	if err != nil {
		return nil, err
	}
	res := &ScenarioResult{
		Report:        rep.Clone(), // detach: the arena recycles rep's slices
		MeanRTT:       meanRTT,
		Bursts:        bt.Stats(),
		Drops:         w.rec.Len(),
		Events:        w.Sched.Fired(),
		AmbiguousTies: w.Sched.AmbiguousTies(),
		Analyzer:      an, // arena-owned; valid until the arena's next use
	}
	for _, n := range w.nets {
		res.Forwarded += n.Forwarded()
	}
	if w.retain {
		res.Trace = w.rec
	}
	return res, nil
}
