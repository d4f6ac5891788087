package netsim

import (
	"math/rand"

	"repro/internal/sim"
)

// DropFunc observes a packet drop at a port. The experiments install one at
// the bottleneck to record the loss trace the paper analyzes.
type DropFunc func(p *Packet, at sim.Time)

// NaivePortPath, when set before a world is built, pins every Port created
// from then on to the reference scheduler path: one serialization-complete
// event and one delivery event per packet, nothing coalesced. It exists for
// the differential tests that hold the batched hot path (the eagerly
// committed schedule and its delivery ring) to bit-identical behavior against
// the naive model, and for A/B benchmarks of the batching win. A naive port
// differs from a production one only by never latching fast mode: both run
// the same exact-mode code, including the serialization-complete event
// re-armed in place (Rearm arms the key After would). The flag is read once
// in NewPort; flipping it never affects existing ports. It stays a package
// global because it is the tests' reference switch: no production code sets
// it, and a per-world option would thread through topo, exp, core and the
// scenarios to reach NewPort.
var NaivePortPath bool

// Link is a unidirectional wire: it serializes packets at Rate and delivers
// them to Dst after Delay. Serialization occupies the link, so a Link is
// driven by a Port which starts the next transmission when the previous one
// finishes.
//
// Rate and Delay may be read freely, but a running world must change them
// through Retune so the owning port can rewind its coalesced serialization
// chain; writing the fields directly is only safe while the port is idle
// (between runs — topo's Network.Reset does exactly that).
type Link struct {
	Rate  int64        // bits per second
	Delay sim.Duration // propagation delay
	Dst   Handler

	// notify is the owning port's retune hook, set by NewPort. It runs
	// after Retune applies new parameters, with the old ones as arguments.
	notify func(oldRate int64, oldDelay sim.Duration)
}

// NewLink builds a link. Rate must be positive.
func NewLink(rate int64, delay sim.Duration, dst Handler) *Link {
	if rate <= 0 {
		panic("netsim: link rate must be positive")
	}
	return &Link{Rate: rate, Delay: delay, Dst: dst}
}

// TxTime reports how long a packet of size bytes occupies the link.
func (l *Link) TxTime(size int) sim.Duration {
	return sim.Duration(int64(size) * 8 * int64(sim.Second) / l.Rate)
}

// Retune changes the link's rate and/or propagation delay mid-run, with
// RateStep semantics: a zero rate keeps the current rate and a zero delay
// keeps the current delay. Retune is the only safe way to change a live
// link's parameters — it tells the owning port to rewind any batched
// serialization chain, so packets that start serializing after the retune
// use the new rate and delay while the packet on the wire and deliveries
// already in flight keep the timings they were committed with (the
// contract LinkModulator documents).
func (l *Link) Retune(rate int64, delay sim.Duration) {
	oldR, oldD := l.Rate, l.Delay
	if rate > 0 {
		l.Rate = rate
	}
	if delay > 0 {
		l.Delay = delay
	}
	if l.notify != nil && (l.Rate != oldR || l.Delay != oldD) {
		l.notify(oldR, oldD)
	}
}

// ringEntry is one committed transmission in a port's delivery ring: the
// packet, when it starts and finishes serializing, and when it lands at the
// destination. The whole schedule is computed eagerly at commit time. eager
// records that serialization began synchronously at commit (the link was
// idle), which the reference path would have done inline in Handle with no
// event — entries that instead start when their predecessor finishes are
// dequeued, in the reference, by a serialization-complete event armed at
// the predecessor's start, and settle uses that distinction to place
// same-nanosecond observations on the correct side of the dequeue.
type ringEntry struct {
	pkt    *Packet
	start  sim.Time // serialization start
	done   sim.Time // serialization complete
	due    sim.Time // delivery at Dst
	pstart sim.Time // arming instant of this entry's (virtual) dequeue: the
	// previous packet's serialization start for a chained entry, or the
	// arming instant of the arrival that started serialization inline for
	// an eager one — the grandparent key of the entry's delivery genealogy
	eager bool // started inline at commit, not via a (virtual) event
}

// Port is an output port: a queue feeding a link. Arriving packets enter
// the queue (or are dropped, invoking OnDrop); the port transmits the head
// packet whenever the link is idle. This is the standard ns-2 queue+link
// model, and — together with the optional LinkLoss wire-drop hook — where
// every loss in the system happens.
//
// The port exploits two per-link monotonicity invariants to collapse
// scheduler traffic (see ARCHITECTURE.md, "Link service batching"):
//
//   - Delivery ring: all undelivered packets committed with the same
//     propagation delay have FIFO delivery order, so the port keeps them in
//     one ring buffer with a single outstanding delivery timer that re-arms
//     to the next head on fire, instead of one scheduler event each.
//   - Serialization chains: on a port whose per-packet fate needs no
//     observation at serialization-complete time (DropTail queue, no
//     LinkLoss, no ProcNoise) the entire service schedule of a busy period
//     is computed eagerly at enqueue time — the "fast" mode, one scheduler
//     event per delivered packet. Ports that do need the exact
//     serialization-complete instant (RED's idle-time bookkeeping, the
//     LinkLoss consult, ProcNoise draws) keep a per-packet
//     serialization-complete event but re-arm it in place (Scheduler.Rearm)
//     so a busy period costs zero event alloc/release round trips.
//
// The per-packet path is allocation-free either way: callbacks are created
// once in NewPort, ring capacity is retained across runs, and dropped
// packets recycle into the world's PacketPool when one is attached.
type Port struct {
	Sched *sim.Scheduler
	Queue Queue
	Link  *Link

	// OnDrop, if set, observes every packet the queue rejects. The packet
	// is recycled after the callback returns (when Pool is set), so
	// observers must copy what they need rather than retain the pointer.
	OnDrop DropFunc

	// ProcNoise, if set, returns a per-packet processing delay added before
	// serialization. The Dummynet emulation layer uses it to model the
	// non-ideal packet processing time of a software router.
	ProcNoise func() sim.Duration

	// LinkLoss, if set, is the link-layer loss process: it is consulted
	// exactly once per packet, when the packet finishes serializing, and a
	// true return drops the packet on the wire instead of delivering it.
	// Wire drops fire OnDrop (so loss observers see one merged,
	// time-ordered stream of queue and link losses), count in LinkDropped
	// (not Dropped), and recycle into Pool like queue drops. The process
	// must be stateful-deterministic — typically a seeded
	// lossmodel.GilbertElliott's Lost method, wired by topo.Build from a
	// Spec's LossSpec.
	LinkLoss func() bool

	// Pool, if set, receives dropped packets for reuse. The port only
	// frees packets it terminates (drops); delivered packets are owned by
	// whoever consumes them downstream.
	Pool *PacketPool

	busy  bool
	txPkt *Packet // packet currently serializing (exact mode)

	red   *RED      // cached type assertion of Queue
	dt    *DropTail // cached type assertion of Queue
	naive bool      // reference path, snapshot of NaivePortPath at NewPort
	fast  bool      // eager-chain mode; re-evaluated whenever the port idles

	txDone  func()    // serialization-complete callback, created once
	deliver func(any) // per-event delivery callback (exact mode, ring evictions)
	delFire func()    // ring delivery-timer callback, created once

	// Delivery ring: committed transmissions in commit order, which the
	// single-delay invariant keeps identical to delivery order (retunes
	// that change the delay evict every already-serialized entry to an
	// individual event, see onRetune). counted is the length of the ring
	// prefix whose serialization start has been folded into the fwd /
	// txBytes counters; lastDone is when the link falls idle.
	ring       []ringEntry
	rhead      int
	rlen       int
	counted    int
	lastDone   sim.Time
	prevStart  sim.Time // start of the last entry removed from the ring front
	prevPstart sim.Time // pstart of that same entry
	delTimer   sim.Timer

	// Counters for experiment bookkeeping. Dropped counts queue rejections
	// and LinkDropped wire losses; fwd and txBytes back the Forwarded and
	// TxBytes accessors, which settle the fast path's eagerly committed
	// schedule before reporting so offered = delivered + Dropped +
	// LinkDropped holds at any observation instant.
	Dropped     uint64
	LinkDropped uint64
	fwd         uint64
	txBytes     uint64
}

// NewPort wires a queue to a link on the given scheduler.
func NewPort(sched *sim.Scheduler, q Queue, l *Link) *Port {
	if sched == nil || q == nil || l == nil {
		panic("netsim: NewPort requires scheduler, queue and link")
	}
	p := &Port{Sched: sched, Queue: q, Link: l, naive: NaivePortPath}
	p.red, _ = q.(*RED)
	p.dt, _ = q.(*DropTail)
	p.txDone = p.onTxDone
	p.deliver = func(a any) { p.Link.Dst.Handle(a.(*Packet)) }
	p.delFire = p.onDeliverRing
	l.notify = p.onRetune
	return p
}

// Forwarded reports how many packets have started serializing, including
// those LinkLoss then drops on the wire.
func (p *Port) Forwarded() uint64 {
	if p.fast {
		p.settle(p.Sched.Now())
	}
	return p.fwd
}

// TxBytes reports the bytes of every packet counted in Forwarded.
func (p *Port) TxBytes() uint64 {
	if p.fast {
		p.settle(p.Sched.Now())
	}
	return p.txBytes
}

// QueueLen reports the instantaneous queue length in packets.
func (p *Port) QueueLen() int {
	if p.fast {
		p.settle(p.Sched.Now())
		return p.rlen - p.counted
	}
	return p.Queue.Len()
}

// Handle implements Handler: offer the packet to the queue and kick the
// transmitter.
func (p *Port) Handle(pkt *Packet) {
	if !p.busy && p.rlen == 0 && !p.naive {
		// The port is fully idle — no serialization, no pending deliveries
		// — which is the only safe moment to flip between the eager-chain
		// and exact modes. Hooks are installed at world-build time in
		// practice, so this latches once per run.
		p.fast = p.Link.Delay > 0 && p.dt != nil && p.LinkLoss == nil && p.ProcNoise == nil
	}
	if p.fast {
		p.fastHandle(pkt)
		return
	}
	ok := false
	if p.red != nil {
		ok = p.red.EnqueueAt(pkt, p.Sched.Now().Seconds())
	} else {
		ok = p.Queue.Enqueue(pkt)
	}
	if !ok {
		p.Dropped++
		if p.OnDrop != nil {
			p.OnDrop(pkt, p.Sched.Now())
		}
		p.Pool.Put(pkt)
		return
	}
	if !p.busy {
		p.transmitNext(false)
	}
}

// fastHandle commits a packet's entire service schedule at arrival time.
// Correctness rests on the fast mode preconditions: with a DropTail queue
// the accept/drop decision depends only on the instantaneous queue length,
// which equals the number of committed-but-unstarted ring entries (every
// packet the true model would hold in the queue is exactly one whose
// serialization has not begun); with no LinkLoss and no ProcNoise nothing
// observes the serialization-complete instant, so no event needs to fire
// there and the whole busy period collapses to delivery fires.
func (p *Port) fastHandle(pkt *Packet) {
	now := p.Sched.Now()
	p.settle(now)
	if p.rlen-p.counted >= p.dt.Limit {
		p.Dropped++
		if p.OnDrop != nil {
			p.OnDrop(pkt, now)
		}
		p.Pool.Put(pkt)
		return
	}
	// Is the link idle from this arrival's point of view? Strictly idle
	// (lastDone < now, or nothing ever transmitted) is unambiguous. When the
	// last committed serialization ends exactly now, the reference path
	// settles the race by event order: its serialization-complete event —
	// armed when that packet started — fires before this arrival only if it
	// was armed before this arrival's event was, or at the same instant by a
	// callback that was itself armed earlier (see Scheduler.FiringLineage).
	eager := p.lastDone < now || p.lastDone == 0
	if !eager && p.lastDone == now {
		ls, lp := p.prevStart, p.prevPstart
		if p.rlen > 0 {
			e := p.entryAt(p.rlen - 1)
			ls, lp = e.start, e.pstart
		}
		f, f2 := p.Sched.FiringLineage()
		eager = ls < f || (ls == f && lp < f2)
	}
	start, pstart := p.lastDone, p.prevStart
	if p.rlen > 0 {
		pstart = p.entryAt(p.rlen - 1).start
	}
	if eager {
		start = now
		pstart, _ = p.Sched.FiringLineage()
	}
	done := start.Add(p.Link.TxTime(pkt.Size))
	due := done.Add(p.Link.Delay)
	p.lastDone = done
	p.pushBack(ringEntry{pkt: pkt, start: start, done: done, due: due, pstart: pstart, eager: eager})
	if eager {
		// Serialization starts inline, so the counters settle in place (the
		// entry is the ring tail and everything before it already started,
		// keeping the counted prefix contiguous).
		p.fwd++
		p.txBytes += uint64(pkt.Size)
		p.counted++
	}
	if p.rlen == 1 {
		p.delTimer = p.Sched.AtAsOf(due, done, start, pstart, p.delFire)
	}
}

// settle folds every ring entry whose serialization has started by now into
// the forwarded counters. Entries are committed in start order, so the
// counted prefix advances monotonically and each entry is counted exactly
// once — amortized O(1) per packet.
//
// An entry starting exactly now needs the reference path's event order to
// resolve: its dequeue happens inside the previous packet's
// serialization-complete event, armed at that packet's start, and that
// event has fired by the current observation point only if its (arming
// instant, parent arming instant) lineage precedes the currently firing
// event's. Entries that started inline at commit (eager) were counted then
// and never reach this test.
func (p *Port) settle(now sim.Time) {
	for p.counted < p.rlen {
		e := p.entryAt(p.counted)
		if e.start > now {
			break
		}
		if e.start == now && !e.eager {
			ps, ps2 := p.prevStart, p.prevPstart
			if p.counted > 0 {
				q := p.entryAt(p.counted - 1)
				ps, ps2 = q.start, q.pstart
			}
			f, f2 := p.Sched.FiringLineage()
			if ps > f || (ps == f && ps2 >= f2) {
				break
			}
		}
		p.fwd++
		p.txBytes += uint64(e.pkt.Size)
		p.counted++
	}
}

// onDeliverRing is the delivery timer: deliver the ring head, then re-arm
// the one timer to the next head. The firing event is reused in place
// (Scheduler.Rearm), so a port's whole delivery stream rides one event —
// armed, each time, with the genealogy of the per-packet delivery event the
// reference path would have created for the entry it aims at: armed at the
// entry's serialization-complete instant, by a serialization-complete
// callback armed at the entry's start, itself armed at the entry's pstart.
// Simultaneous events fire in arming-genealogy order, so the spoofed keys
// slot each ring delivery into same-nanosecond ties precisely where the
// reference would have — including ties against another port's delivery
// committed for the very same instant, which the reference breaks by the
// two serialization chains' histories.
func (p *Port) onDeliverRing() {
	p.settle(p.Sched.Now())
	e := p.popFront()
	p.delTimer = sim.Timer{}
	p.Link.Dst.Handle(e.pkt)
	if p.rlen > 0 && !p.delTimer.Pending() {
		next := p.entryAt(0)
		p.delTimer = p.Sched.RearmAsOf(next.due, next.done, next.start, next.pstart)
	}
}

// transmitNext dequeues and starts serializing the next packet. chained is
// true when called from inside the serialization-complete callback, where
// the firing event can be re-armed in place instead of released and
// reallocated.
func (p *Port) transmitNext(chained bool) {
	pkt := p.Queue.Dequeue()
	if pkt == nil {
		p.busy = false
		return
	}
	if p.Queue.Len() == 0 && p.red != nil {
		p.red.NoteEmptyAt(p.Sched.Now().Seconds())
	}
	p.busy = true
	tx := p.Link.TxTime(pkt.Size)
	if p.ProcNoise != nil {
		tx += p.ProcNoise()
	}
	p.fwd++
	p.txBytes += uint64(pkt.Size)
	// The packet leaves the port after serialization; it arrives at the
	// destination a propagation delay later. The port is free to start the
	// next packet as soon as serialization completes.
	p.txPkt = pkt
	if chained {
		p.Sched.Rearm(p.Sched.Now().Add(tx))
	} else {
		p.Sched.After(tx, p.txDone)
	}
}

func (p *Port) onTxDone() {
	pkt := p.txPkt
	p.txPkt = nil
	if p.LinkLoss != nil && p.LinkLoss() {
		// Lost on the wire: the packet occupied the link for its full
		// serialization time but never arrives.
		p.LinkDropped++
		if p.OnDrop != nil {
			p.OnDrop(pkt, p.Sched.Now())
		}
		p.Pool.Put(pkt)
	} else {
		// Exact mode arms one delivery event per packet, exactly like the
		// naive reference: the event's position in the same-nanosecond tie
		// order is its arming order, and behavioral fidelity to the goldens
		// requires arming each delivery here, at this packet's
		// serialization-complete instant. The delivery ring is a fast-mode
		// structure only (see fastHandle), where no per-packet event exists.
		p.Sched.AfterArg(p.Link.Delay, p.deliver, pkt)
	}
	p.transmitNext(true)
}

// onRetune is the Link.Retune hook: rewind the batched state so packets
// that start serializing after the retune use the new rate and delay, while
// the packet on the wire and already-serialized deliveries keep the timings
// they were committed with.
func (p *Port) onRetune(oldRate int64, oldDelay sim.Duration) {
	if !p.fast || p.rlen == 0 {
		// Exact mode needs no hook: the serializing packet's completion
		// event was scheduled with the old rate (in-flight transmissions
		// keep their tx time), the next dequeue reads the new rate
		// naturally, and each delivery is already its own event carrying
		// the delay it was committed with.
		return
	}
	now := p.Sched.Now()
	rateChanged := p.Link.Rate != oldRate
	delayChanged := p.Link.Delay != oldDelay

	p.settle(now)
	// Entries still serializing or waiting form the chain suffix —
	// everything before it has left the link and keeps its committed
	// delivery time. An entry whose serialization completes exactly at the
	// retune instant has left the link only if its (virtual)
	// serialization-complete event — armed at its start by a callback armed
	// at its pstart — precedes the event driving this retune, the same
	// fired-by-now lineage test settle applies.
	asOf, asOf2 := p.Sched.FiringLineage()
	cs := p.rlen
	for cs > 0 {
		e := p.entryAt(cs - 1)
		if e.done > now || (e.done == now && (e.start > asOf || (e.start == asOf && e.pstart >= asOf2))) {
			cs--
			continue
		}
		break
	}
	evicted := false
	if delayChanged && cs > 0 {
		// Already-serialized deliveries keep the old propagation delay, so
		// they no longer share the ring's delay; evict them to individual
		// events, each armed with the genealogy of the per-packet delivery
		// event the reference would have created.
		for i := 0; i < cs; i++ {
			e := p.popFront()
			p.Sched.AtArgAsOf(e.due, e.done, e.start, e.pstart, p.deliver, e.pkt)
		}
		cs = 0
		evicted = true
	}
	if (rateChanged || delayChanged) && p.rlen > cs {
		// Rewind the chain: the packet on the wire keeps its transmission
		// time (its due moves only if the delay changed); the waiting ones
		// cascade behind it at the new rate, each entry's dequeue re-armed,
		// genealogy included, off its predecessor's new start.
		prev, prevStart := sim.Time(0), sim.Time(0)
		for i := cs; i < p.rlen; i++ {
			e := p.entryAt(i)
			if i > cs {
				e.pstart = prevStart
				e.start = prev
				e.done = e.start.Add(p.Link.TxTime(e.pkt.Size))
			}
			e.due = e.done.Add(p.Link.Delay)
			prevStart = e.start
			prev = e.done
		}
		p.lastDone = prev
	}
	// Re-aim the single delivery timer at the (possibly new) head, armed
	// with the head's delivery genealogy. After an eviction the timer must
	// be re-armed even when the new head's due time matches the old one,
	// because the genealogy it carries still belongs to the evicted head.
	if p.rlen == 0 {
		p.Sched.Cancel(p.delTimer)
		p.delTimer = sim.Timer{}
	} else if e0 := p.entryAt(0); evicted || p.delTimer.Time() != e0.due {
		p.Sched.Cancel(p.delTimer)
		p.delTimer = p.Sched.AtAsOf(e0.due, e0.done, e0.start, e0.pstart, p.delFire)
	}
}

// entryAt returns the i-th ring entry counting from the head.
func (p *Port) entryAt(i int) *ringEntry {
	return &p.ring[(p.rhead+i)&(len(p.ring)-1)]
}

func (p *Port) pushBack(e ringEntry) {
	if p.rlen == len(p.ring) {
		p.growRing()
	}
	p.ring[(p.rhead+p.rlen)&(len(p.ring)-1)] = e
	p.rlen++
}

func (p *Port) popFront() ringEntry {
	e := p.ring[p.rhead]
	p.ring[p.rhead] = ringEntry{}
	p.rhead = (p.rhead + 1) & (len(p.ring) - 1)
	p.rlen--
	if p.counted > 0 {
		p.counted--
	}
	p.prevStart = e.start
	p.prevPstart = e.pstart
	return e
}

// growRing doubles the ring's capacity (power of two, for mask indexing),
// compacting the live entries to the front. Capacity is retained across
// runs, so steady-state traffic never grows it again.
func (p *Port) growRing() {
	n := len(p.ring) * 2
	if n == 0 {
		n = 16
	}
	nr := make([]ringEntry, n)
	for i := 0; i < p.rlen; i++ {
		nr[i] = p.ring[(p.rhead+i)&(len(p.ring)-1)]
	}
	p.ring = nr
	p.rhead = 0
}

// Reset returns the port to its just-built state for world reuse: leftover
// queued, in-flight and ring-committed packets recycle into the pool, the
// counters zero, and the per-run hooks (OnDrop, ProcNoise, LinkLoss)
// detach. The queue instance, link, ring capacity and internal callbacks
// persist — rewinding the discipline's own state (DropTail.Reset,
// RED.Reset) and the link's rate/delay is the topology layer's job.
// Callers must reset the owning scheduler first (or alongside), since
// pending serialization and delivery events are cancelled wholesale there;
// deliveries that were evicted to individual events (see onRetune) carry
// their packets as event arguments and come back through the scheduler's
// Reset drain instead.
func (p *Port) Reset() {
	for {
		pkt := p.Queue.Dequeue()
		if pkt == nil {
			break
		}
		p.Pool.Put(pkt)
	}
	p.Pool.Put(p.txPkt)
	p.txPkt = nil
	for p.rlen > 0 {
		p.Pool.Put(p.popFront().pkt)
	}
	p.rhead = 0
	p.counted = 0
	p.lastDone = 0
	p.prevStart = 0
	p.prevPstart = 0
	p.Sched.Cancel(p.delTimer) // no-op when the scheduler was reset first
	p.delTimer = sim.Timer{}
	p.busy = false
	p.fast = false
	p.OnDrop = nil
	p.ProcNoise = nil
	p.LinkLoss = nil
	p.fwd = 0
	p.Dropped = 0
	p.LinkDropped = 0
	p.txBytes = 0
}

// UniformNoise returns a ProcNoise function drawing uniformly from [0,max).
// A non-positive max yields a zero-noise function that never touches the
// rng, so a disabled noise source does not perturb anyone else's stream.
func UniformNoise(rng *rand.Rand, max sim.Duration) func() sim.Duration {
	if max <= 0 {
		return func() sim.Duration { return 0 }
	}
	return func() sim.Duration { return sim.Duration(rng.Int63n(int64(max))) }
}
