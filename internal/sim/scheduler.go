package sim

import "fmt"

// event is the scheduler-owned state behind a Timer handle. Events are
// recycled through a per-scheduler freelist: the generation counter is
// bumped every time an event leaves the scheduled state (fire or cancel),
// which is what makes a stale Timer handle a detectable no-op instead of a
// use-after-free. The freelist is per world and needs no synchronization
// because a Scheduler is confined to one goroutine by contract.
//
// One entry per event: at any moment at most one queue entry (heap or wheel)
// points at an event struct, and an event is on the freelist only when none
// does. The tie-break keys below live here rather than in the entry, so they
// must not change while an entry can still be compared through them — which
// is why a heap-resident Cancel retires the struct as a tombstone (dead)
// instead of recycling it, and the struct returns to the freelist only when
// its entry pops.
type event struct {
	t    Time
	gen  uint64
	fn   func()
	afn  func(any)
	arg  any
	next *event // freelist link

	// Wheel residency backref. wlevel is 0 when the event lives in the
	// heap (or nowhere), 1/2 for wheel level 0/1; wslot and wpos locate
	// its entry so Cancel can swap-remove it in O(1). Eager removal keeps
	// wheel slots tombstone-free — cancel-heavy timer patterns (TCP RTOs
	// rearmed every ACK) would otherwise pile dead entries into far-future
	// slots until the clock reached them.
	wlevel uint8
	wslot  uint8
	dead   bool // tombstone: cancelled while heap-resident
	wpos   int32

	// The tie-break among entries due at the same instant. Last, so that
	// everything recycle and Reset touch sits in the first 64 bytes.
	lineage
}

// lineage is an event's arming genealogy. armT is the virtual instant the
// event was armed at — s.now for the ordinary At/After family, or an instant
// the caller asserts for the AsOf variants. armT2 and armT3 extend the key two
// generations up the arming ancestry: the instant the event's parent (the
// event whose callback armed this one) was armed, and the parent's parent in
// turn. For truthfully armed events the chain is threaded automatically from
// the firing event's own keys, and because seq is strictly monotone over
// arming order, sorting simultaneous events by (armT, armT2, armT3, seq) is
// identical to sorting by seq alone — at every depth the ancestor keys can
// only agree with the seq order they summarize. The genealogy matters when a
// coalesced timer stands in for an event a reference execution would have
// armed elsewhere (see AtAsOf): two stand-ins can tie not just at the due time
// but at the replaced events' arming instants too — two same-geometry ports
// finishing serialization in the same nanosecond — and then the reference
// breaks the tie by the arming order of the parents, which the deeper keys
// carry and a plain (armT, seq) cannot. Ties through all three generations
// fall to seq, the one residual the stand-in cannot reproduce; AmbiguousTies
// counts them.
type lineage struct {
	armT, armT2, armT3 Time
	asOf               bool // asserted by an AsOf entry point, not threaded
}

// Timer is a cancelable handle to a scheduled callback. The zero value is
// inert: Pending reports false and Cancel is a no-op. A Timer stays valid
// after its event fires or is cancelled — it simply stops matching the
// recycled event's generation — so callers may keep handles around without
// lifecycle bookkeeping.
type Timer struct {
	e   *event
	gen uint64
}

// Pending reports whether the timer's callback is still queued.
func (tm Timer) Pending() bool { return tm.e != nil && tm.e.gen == tm.gen }

// Time reports when the callback will fire, or 0 when the timer is not
// pending.
func (tm Timer) Time() Time {
	if !tm.Pending() {
		return 0
	}
	return tm.e.t
}

// entry is one element of the scheduler's event queue: the due time, the
// FIFO sequence number and the event. It is what every heap sift, wheel
// append, slot flush and cascade copies, so it carries only the hot key —
// the rest of the ordering key (the arming genealogy) is read through e,
// and only when two due times tie.
type entry struct {
	t   Time
	seq uint64
	e   *event
}

// less orders entries by (t, armT, armT2, armT3, seq). Distinct due times —
// the common case at nanosecond resolution — decide on one word; ties fall
// into tieLess, kept out of line so this stays small enough to inline into
// the sift loops.
func (s *Scheduler) less(a, b *entry) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	return s.tieLess(a, b)
}

//go:noinline
func (s *Scheduler) tieLess(a, b *entry) bool {
	ea, eb := a.e, b.e
	if ea.armT != eb.armT {
		return ea.armT < eb.armT
	}
	if ea.armT2 != eb.armT2 {
		return ea.armT2 < eb.armT2
	}
	if ea.armT3 != eb.armT3 {
		return ea.armT3 < eb.armT3
	}
	if (ea.asOf || eb.asOf) && !ea.dead && !eb.dead {
		s.ambiguous++
	}
	return a.seq < b.seq
}

// Timing-wheel geometry. Two fixed levels of 256 slots front the heap:
// level 0 buckets events by 2^16 ns (~65.5 µs) ticks — a horizon of
// ~16.8 ms, which covers per-packet serialize/deliver timers and most
// RTT-scale timeouts — and level 1 buckets by 2^24 ns (~16.8 ms) ticks for
// a horizon of ~4.29 s, which covers retransmission timers. Events beyond
// the level-1 horizon, or due in an already-flushed tick, go straight to
// the heap.
const (
	wheelBits  = 8
	wheelSlots = 1 << wheelBits // 256 slots per level
	wheelMask  = wheelSlots - 1
	tick0Bits  = 16 // level-0 granularity: 2^16 ns
	tick1Bits  = tick0Bits + wheelBits
)

// Scheduler is a deterministic discrete-event executor. The zero value is
// ready to use. Scheduler is not safe for concurrent use: the simulated
// world is single-threaded by design, which is what makes runs reproducible.
// A Scheduler must stay confined to the goroutine that created it; to use
// many CPUs, run independent Schedulers in parallel (see internal/exp), one
// per replication, never one Scheduler across goroutines.
//
// The core queue is a value-based 4-ary min-heap ordered by (time, arming
// genealogy, insertion sequence): flatter than a binary heap (fewer cache-missing
// levels per sift) and free of the container/heap interface dispatch; its
// 24-byte entries carry the time and sequence, and the genealogy is read
// through the event pointer only when two times tie. A
// two-level hierarchical timing wheel fronts the heap: near-future events
// land in fixed slots with O(1) insert, and a slot's entries are flushed
// into the heap only when the clock reaches its tick. Because every event
// ultimately fires through the heap's (time, sequence) merge, the global
// firing order is exactly what a heap-only scheduler produces — the wheel
// changes cost, never order. Event structs come from a per-world freelist
// and fire-or-cancel recycles them, so the steady-state scheduling path
// performs no allocation.
type Scheduler struct {
	now   Time
	seq   uint64
	queue []entry
	live  int // scheduled and not cancelled — Pending() in O(1)
	fired uint64
	// ambiguous counts tie comparisons only seq could decide although one
	// side's genealogy was asserted rather than threaded. See AmbiguousTies.
	ambiguous uint64
	halted    bool
	free      *event

	// Timing wheel state. cur0 is the next unflushed level-0 tick
	// (absolute, = time >> tick0Bits); cur1 the next uncascaded level-1
	// tick. count0/count1 track stored entries per level, so emptiness
	// checks are O(1). Slot slices keep their capacity across flushes and
	// Resets.
	cur0, cur1     int64
	count0, count1 int
	wheelInit      bool
	slots0         [wheelSlots][]entry
	slots1         [wheelSlots][]entry

	// drain, when set, receives the argument of every live argument-carrying
	// event that Reset abandons. See SetResetDrain.
	drain func(any)

	// firing is the event whose callback is currently executing. Step
	// defers recycling the fired event until the callback returns so the
	// callback can re-arm it in place via Rearm — the serialization-chain
	// path in netsim re-uses one event per busy period this way instead of
	// paying a freelist round trip per packet. firingArmT, firingArmT2 and
	// inFire expose the firing event's arming instant and its parent's to
	// callbacks (FiringLineage) and seed the genealogy keys of events armed
	// inside the callback; they are copied out of the event because a Rearm
	// re-keys it before the callback returns.
	firing      *event
	firingArmT  Time
	firingArmT2 Time
	inFire      bool
}

// SetResetDrain installs a hook that Reset hands the argument of every
// still-scheduled AfterArg/AtArgAsOf event to, before recycling the event.
// Without it, resetting a world mid-flight strands whatever the pending
// events were carrying — in netsim terms, every packet that was riding a
// propagation or serialization event leaks to the garbage collector and
// the world's packet pool refills from the allocator on the next run. The
// arena wires this to the packet pool (recovered values are recycled, not
// replayed), which is what keeps back-to-back replications allocation-free
// in steady state. Cancelled events never reach the hook; their arguments
// were dropped at Cancel time.
func (s *Scheduler) SetResetDrain(fn func(any)) { s.drain = fn }

// initSlots carves every slot's initial capacity out of one backing array,
// so a cold scheduler pays one allocation for the whole wheel instead of
// one per touched slot. Slots that outgrow their chunk reallocate
// individually and keep the larger capacity from then on.
func (s *Scheduler) initSlots() {
	const per = 32
	backing := make([]entry, wheelSlots*2*per)
	for i := range s.slots0 {
		off := i * per
		s.slots0[i] = backing[off : off : off+per]
	}
	for i := range s.slots1 {
		off := (wheelSlots + i) * per
		s.slots1[i] = backing[off : off : off+per]
	}
	s.wheelInit = true
}

// NewScheduler returns an empty scheduler at time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Reset returns the scheduler to the empty time-zero state of a fresh
// NewScheduler while keeping the event freelist and the queue's capacity.
// A worker that runs replications back to back resets one scheduler
// instead of allocating a new world's worth of events each time; because
// every counter (now, seq, fired) restarts from zero, a run on a reset
// scheduler is bit-identical to a run on a fresh one.
func (s *Scheduler) Reset() {
	s.releaseAll(s.queue)
	s.queue = s.queue[:0]
	for i := range s.slots0 {
		s.releaseAll(s.slots0[i])
		s.slots0[i] = s.slots0[i][:0]
	}
	for i := range s.slots1 {
		s.releaseAll(s.slots1[i])
		s.slots1[i] = s.slots1[i][:0]
	}
	s.cur0 = 0
	s.cur1 = 0
	s.count0 = 0
	s.count1 = 0
	s.now = 0
	s.seq = 0
	s.live = 0
	s.fired = 0
	s.ambiguous = 0
	s.halted = false
	s.firing = nil
	s.firingArmT = 0
	s.firingArmT2 = 0
	s.inFire = false
}

// releaseAll recycles the event behind every entry of q and clears q, for
// the caller to truncate in place (slices keep their capacity for the next
// run). Every entry owns its event, live or tombstone, so both kinds go back
// to the freelist; only live ones have an argument left for the drain.
func (s *Scheduler) releaseAll(q []entry) {
	for i := range q {
		e := q[i].e
		if e.dead {
			s.recycle(e)
		} else {
			if s.drain != nil && e.arg != nil {
				s.drain(e.arg)
			}
			s.release(e)
		}
		q[i] = entry{}
	}
}

// Now reports the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired reports how many events have executed so far. Useful for tests,
// for cost accounting in benchmarks, and for the simulated-events/sec
// throughput lines cmd/paperexp prints.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending reports how many events are queued and not cancelled. It is a
// maintained counter, not a scan: safe to call per event.
func (s *Scheduler) Pending() int { return s.live }

// AmbiguousTies reports how many queue comparisons since the last Reset tied
// on the due time and all three genealogy keys, and so fell to the sequence
// number, with an AsOf-armed event on either side. Those are the ties a
// coalesced stand-in cannot prove it resolves as the reference execution
// would (see AtAsOf); between truthfully armed events seq is the reference
// order. It counts comparisons, not events, so it bounds the ambiguity from
// above: zero means the run never relied on the residual.
func (s *Scheduler) AmbiguousTies() uint64 { return s.ambiguous }

// eventSlab is how many events an empty freelist allocates at once: a
// world's working set of concurrent timers is built one slab allocation
// per 64 events instead of one each. Slabs pin nothing — released events
// clear their callback and argument references.
const eventSlab = 64

// alloc takes an event from the freelist, or grows it by a slab.
func (s *Scheduler) alloc() *event {
	e := s.free
	if e == nil {
		slab := make([]event, eventSlab)
		for i := range slab[1:] {
			slab[1+i].next = s.free
			s.free = &slab[1+i]
		}
		return &slab[0]
	}
	s.free = e.next
	e.next = nil
	return e
}

// release recycles an event no entry points at any more: the generation
// bump invalidates every Timer handle, then recycle frees the struct.
func (s *Scheduler) release(e *event) {
	e.gen++
	s.recycle(e)
}

// recycle puts an event whose generation was already bumped (at fire time,
// or when it became a tombstone) on the freelist. Clearing the callback and
// argument drops their references so freelisted events pin no world state.
// Kept separate from release so Rearm can intercept the firing event
// between the bump and the recycle.
func (s *Scheduler) recycle(e *event) {
	e.fn = nil
	e.afn = nil
	e.arg = nil
	e.wlevel = 0
	e.dead = false
	e.next = s.free
	s.free = e
}

// entomb retires a heap-resident event whose entry cannot be removed in
// O(1): handles go inert and the callback and argument are dropped now, but
// the struct — and with it the tie-break keys its entry is ordered by —
// stays untouched until the entry pops and recycles it.
func (s *Scheduler) entomb(e *event) {
	e.gen++
	e.fn = nil
	e.afn = nil
	e.arg = nil
	e.dead = true
}

// armedNow reports the truthful genealogy keys for an event armed at this
// moment: the arming instant is now, and the ancestor keys are those of the
// currently firing event. Outside a callback (world setup, manual stepping)
// every key is now, which orders after all already-fired work, as it must.
func (s *Scheduler) armedNow() lineage {
	if s.inFire {
		return lineage{armT: s.now, armT2: s.firingArmT, armT3: s.firingArmT2}
	}
	return lineage{armT: s.now, armT2: s.now, armT3: s.now}
}

// schedule queues an event at absolute time t with arming genealogy lin
// (armedNow() for the truthful entry points, asserted for the AsOf ones).
func (s *Scheduler) schedule(t Time, lin lineage, fn func(), afn func(any), arg any) Timer {
	if t < s.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", t, s.now))
	}
	if lin.armT > t {
		panic(fmt.Sprintf("sim: armed-as-of %v after due time %v", lin.armT, t))
	}
	// When both wheels are empty the clock can outrun the cursors (heap
	// events fire without flushing anything). Re-base then, so near-future
	// events keep landing in wheel slots instead of degrading to the heap.
	if s.count0+s.count1 == 0 {
		if tk := int64(s.now) >> tick0Bits; tk > s.cur0 {
			s.cur0 = tk
			s.cur1 = tk >> wheelBits
		}
	}
	e := s.alloc()
	e.fn = fn
	e.afn = afn
	e.arg = arg
	s.live++
	return s.arm(e, t, lin)
}

// arm keys an event no entry points at and queues its one entry.
func (s *Scheduler) arm(e *event, t Time, lin lineage) Timer {
	e.t = t
	e.lineage = lin
	s.place(entry{t: t, seq: s.seq, e: e})
	s.seq++
	return Timer{e: e, gen: e.gen}
}

// place routes an entry to a wheel slot or the heap by its due time.
// Entries in an already-flushed level-0 tick must go to the heap (their
// slot will not be visited again before they are due); entries within the
// level-0 horizon get an O(1) slot append; entries within the level-1
// horizon get a coarse slot that cascades into level 0 later; everything
// farther out falls back to the heap.
func (s *Scheduler) place(en entry) {
	tk0 := int64(en.t) >> tick0Bits
	if tk0 < s.cur0 {
		en.e.wlevel = 0
		s.push(en)
		return
	}
	if !s.wheelInit {
		s.initSlots()
	}
	if tk0-s.cur0 < wheelSlots {
		i := tk0 & wheelMask
		en.e.wlevel = 1
		en.e.wslot = uint8(i)
		en.e.wpos = int32(len(s.slots0[i]))
		s.slots0[i] = append(s.slots0[i], en)
		s.count0++
		return
	}
	tk1 := int64(en.t) >> tick1Bits
	if tk1 >= s.cur1 && tk1-s.cur1 < wheelSlots {
		i := tk1 & wheelMask
		en.e.wlevel = 2
		en.e.wslot = uint8(i)
		en.e.wpos = int32(len(s.slots1[i]))
		s.slots1[i] = append(s.slots1[i], en)
		s.count1++
		return
	}
	en.e.wlevel = 0
	s.push(en)
}

// wheelRemove eagerly swap-removes a still-scheduled event's entry from
// its wheel slot, fixing up the backref of whichever entry the swap moved.
// Wheel slots therefore never hold tombstones; only heap entries are
// deleted lazily.
func (s *Scheduler) wheelRemove(e *event) {
	var sl *[]entry
	if e.wlevel == 1 {
		sl = &s.slots0[e.wslot]
		s.count0--
	} else {
		sl = &s.slots1[e.wslot]
		s.count1--
	}
	q := *sl
	last := len(q) - 1
	pos := int(e.wpos)
	if pos != last {
		q[pos] = q[last]
		q[pos].e.wpos = int32(pos)
	}
	q[last] = entry{}
	*sl = q[:last]
	e.wlevel = 0
}

// advance flushes expired wheel slots into the heap until the heap's head
// (if any) provably precedes every wheel entry — i.e. it is earlier than
// the first unflushed tick — or the wheels drain. All firing happens from
// the heap, so this is the only place wheel entries change residence.
func (s *Scheduler) advance() {
	for s.count0+s.count1 > 0 {
		if len(s.queue) > 0 && s.queue[0].t < Time(s.cur0<<tick0Bits) {
			return
		}
		if s.cur0>>wheelBits == s.cur1 {
			s.cascade()
			continue
		}
		if s.count0 == 0 {
			// Nothing left at level 0: jump straight to the next
			// level-1 boundary instead of walking empty slots.
			s.cur0 = s.cur1 << wheelBits
			continue
		}
		sl := s.slots0[s.cur0&wheelMask]
		if n := len(sl); n > 0 {
			// Every entry is live (Cancel removes eagerly); hand each to
			// the heap, which owns ordering from here on.
			for i := range sl {
				en := sl[i]
				sl[i] = entry{}
				en.e.wlevel = 0
				s.push(en)
			}
			s.slots0[s.cur0&wheelMask] = sl[:0]
			s.count0 -= n
		}
		s.cur0++
	}
}

// cascade drains the next level-1 slot into the level-0 slots that now
// cover its tick. Entries in the slot are always exactly due — the insert
// window (tick ≥ cur1) and in-order cascading make a mixed-wrap slot
// impossible — but re-placement goes through place anyway, which also
// handles the defensive cases (heap fallback) for free.
func (s *Scheduler) cascade() {
	i := s.cur1 & wheelMask
	sl := s.slots1[i]
	// Truncate before re-placing so a (defensive) re-place into this same
	// slot would append after the drained prefix instead of being lost to
	// a trailing truncation; reads stay ahead of any such writes.
	s.slots1[i] = sl[:0]
	s.count1 -= len(sl)
	s.cur1++
	for j := range sl {
		en := sl[j]
		sl[j] = entry{}
		s.place(en)
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// that is always a logic error in a discrete-event model.
func (s *Scheduler) At(t Time, fn func()) Timer {
	return s.schedule(t, s.armedNow(), fn, nil, nil)
}

// After schedules fn to run d from now. Negative d panics.
func (s *Scheduler) After(d Duration, fn func()) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.schedule(s.now.Add(d), s.armedNow(), fn, nil, nil)
}

// AfterArg schedules fn(arg) to run d from now. Negative d panics. Passing
// the argument through the scheduler lets hot paths reuse one long-lived
// callback instead of allocating a capturing closure per event (a pointer in
// an interface does not allocate); netsim's per-packet delivery path relies
// on this.
func (s *Scheduler) AfterArg(d Duration, fn func(any), arg any) Timer {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return s.schedule(s.now.Add(d), s.armedNow(), nil, fn, arg)
}

// AtAsOf schedules fn at absolute time t as if it had been armed at virtual
// instant armedAt by a callback itself armed at parentAt, whose arming
// callback was in turn armed at grandAt. It exists for coalesced timers
// that stand in for events a reference execution would have armed one per
// packet: with a truthful genealogy (the instants the replaced event and
// its two nearest ancestors would have been created), every same-nanosecond
// tie against ordinary events resolves exactly as it would have in the
// reference schedule, because simultaneous events fire in (arming
// genealogy, sequence) order and sequence is itself monotone over arming
// time — including ties where two stand-ins replace events armed at the
// same instant, which the reference orders by the parents' own arming
// instants. The keys must be non-increasing up the chain (grandAt ≤
// parentAt ≤ armedAt ≤ t) and may lie in the future relative to now — they
// are ordering keys, not constraints on when the call is made.
func (s *Scheduler) AtAsOf(t, armedAt, parentAt, grandAt Time, fn func()) Timer {
	return s.schedule(t, assertedLineage(t, armedAt, parentAt, grandAt), fn, nil, nil)
}

// AtArgAsOf is AtAsOf for an argument-carrying callback.
func (s *Scheduler) AtArgAsOf(t, armedAt, parentAt, grandAt Time, fn func(any), arg any) Timer {
	return s.schedule(t, assertedLineage(t, armedAt, parentAt, grandAt), nil, fn, arg)
}

// assertedLineage validates an explicit arming genealogy — each ancestor
// was armed no later than the event it armed — and marks it as asserted.
func assertedLineage(t, armedAt, parentAt, grandAt Time) lineage {
	if armedAt > t || parentAt > armedAt || grandAt > parentAt {
		panic(fmt.Sprintf("sim: arming genealogy %v ≥ %v ≥ %v ≥ %v violated",
			t, armedAt, parentAt, grandAt))
	}
	return lineage{armT: armedAt, armT2: parentAt, armT3: grandAt, asOf: true}
}

// FiringLineage reports the first two genealogy keys of the event whose
// callback is currently executing: its own arming instant — the armedAt it
// was scheduled with, which for ordinary events is the time of the callback
// that armed them — and its parent's. Outside a callback both report Now(),
// which compares after every arming instant of already-fired work, as an
// outside observer should. Hot-path consumers (netsim's batched port) use
// the first key to decide whether a reference execution would already have
// fired a coalesced-away event at this same nanosecond: the reference fires
// simultaneous events in arming order, so "armed before the currently-firing
// event was" means "already happened". The second key breaks the tie one
// generation deeper when the arming instants themselves collide.
func (s *Scheduler) FiringLineage() (armedAt, parentAt Time) {
	if s.inFire {
		return s.firingArmT, s.firingArmT2
	}
	return s.now, s.now
}

// Cancel removes the timer's callback from the queue if it has not fired.
// Cancelling an inert (zero, fired, or already cancelled) timer is a no-op.
// Removal is O(1) either way: a heap-resident event is deleted lazily (it
// stays behind as a tombstone, discarded and recycled when its entry
// reaches the top), while a wheel-resident one is swap-removed from its
// slot and recycled immediately — so cancel-heavy workloads (TCP
// retransmission timers rearm on every ACK) cost no sift-and-fix work and
// leave no debris in far-future slots.
func (s *Scheduler) Cancel(tm Timer) {
	e := tm.e
	if e == nil || e.gen != tm.gen {
		return
	}
	s.live--
	if e.wlevel == 0 {
		s.entomb(e)
		return
	}
	s.wheelRemove(e)
	s.release(e)
}

// Rearm re-schedules the event whose callback is currently executing to
// fire again at absolute time t, with the same callback and argument. It
// is the chain primitive for self-perpetuating timers (a port's
// serialization-complete handler starting the next transmission, a
// modulator tick arming the next tick): the firing event never touches the
// freelist, so a chain of N firings costs N heap pushes and zero
// alloc/release pairs. Rearm may be called at most once per firing, only
// from inside the callback (panics otherwise), and t must not be in the
// past. Handles taken before the firing are already inert — keep the
// returned Timer to cancel the chain.
func (s *Scheduler) Rearm(t Time) Timer {
	return s.rearm(t, s.armedNow())
}

// RearmAsOf is Rearm with an explicit arming genealogy for the re-armed
// event's tie-break keys (see AtAsOf).
func (s *Scheduler) RearmAsOf(t, armedAt, parentAt, grandAt Time) Timer {
	return s.rearm(t, assertedLineage(t, armedAt, parentAt, grandAt))
}

func (s *Scheduler) rearm(t Time, lin lineage) Timer {
	e := s.firing
	if e == nil {
		panic("sim: Rearm outside a firing callback")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: rearm at %v before now %v", t, s.now))
	}
	s.firing = nil
	s.live++
	return s.arm(e, t, lin)
}

// Halt stops the currently executing Run/RunUntil after the current event
// returns. Queued events are retained, so the run can be resumed.
func (s *Scheduler) Halt() { s.halted = true }

// Step executes the single earliest pending event. It reports false when
// the queue holds no live events.
func (s *Scheduler) Step() bool {
	for {
		s.advance()
		if len(s.queue) == 0 {
			return false
		}
		if s.fireTop() {
			return true
		}
	}
}

// fireTop pops the heap's minimum and fires it, or, when it is the tombstone
// of a cancelled event, recycles the struct and reports false. The caller
// has run advance, so the minimum precedes everything in the wheels.
func (s *Scheduler) fireTop() bool {
	en := s.pop()
	e := en.e
	if e.dead {
		s.recycle(e)
		return false
	}
	// The generation bump happens at fire time — handles go inert before
	// the callback runs, exactly as with an immediate release — but the
	// struct is recycled only after the callback returns, so the callback
	// may Rearm it in place for the next link of a chain.
	e.gen++
	s.live--
	s.now = en.t
	s.fired++
	s.firing = e
	s.firingArmT = e.armT
	s.firingArmT2 = e.armT2
	s.inFire = true
	if e.afn != nil {
		e.afn(e.arg)
	} else {
		e.fn()
	}
	s.inFire = false
	if s.firing == e {
		s.firing = nil
		s.recycle(e)
	}
	return true
}

// Run executes events until the queue drains or Halt is called.
func (s *Scheduler) Run() {
	s.halted = false
	for !s.halted && s.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled exactly at t do fire. A tombstone due after t is left at
// the top: every live entry sorts after it, so nothing is due.
func (s *Scheduler) RunUntil(t Time) {
	s.halted = false
	for !s.halted {
		s.advance()
		if len(s.queue) == 0 || s.queue[0].t > t {
			break
		}
		s.fireTop()
	}
	if s.now < t {
		s.now = t
	}
}

// push inserts an entry into the 4-ary heap (sift up).
func (s *Scheduler) push(en entry) {
	s.queue = append(s.queue, en)
	q := s.queue
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !s.less(&q[i], &q[p]) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// pop removes and returns the minimum entry (sift down).
func (s *Scheduler) pop() entry {
	q := s.queue
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = entry{} // drop the event reference from the dead slot
	s.queue = q[:n]
	if n > 0 {
		q = s.queue
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			best := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
				if s.less(&q[j], &q[best]) {
					best = j
				}
			}
			if !s.less(&q[best], &last) {
				break
			}
			q[i] = q[best]
			i = best
		}
		q[i] = last
	}
	return top
}
