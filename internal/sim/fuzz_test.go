package sim

import (
	"sort"
	"testing"
)

// refEvent is one pending event of the reference scheduler FuzzScheduler
// checks the real one against: the full five-part ordering key, the fuzz
// program's id for the event, and whether it carries an argument.
type refEvent struct {
	t, a1, a2, a3 Time
	seq           uint64
	id            int
	arg           bool
}

func (a refEvent) less(b refEvent) bool {
	switch {
	case a.t != b.t:
		return a.t < b.t
	case a.a1 != b.a1:
		return a.a1 < b.a1
	case a.a2 != b.a2:
		return a.a2 < b.a2
	case a.a3 != b.a3:
		return a.a3 < b.a3
	}
	return a.seq < b.seq
}

// refSched is the reference: a slice kept sorted by the full key, with
// eager removal, so "next to fire" is evs[0] by construction. It threads
// the arming genealogy exactly as the scheduler documents it.
type refSched struct {
	evs      []refEvent
	now      Time
	seq      uint64
	inFire   bool
	fa1, fa2 Time
}

func (r *refSched) armedNow() (a1, a2, a3 Time) {
	if r.inFire {
		return r.now, r.fa1, r.fa2
	}
	return r.now, r.now, r.now
}

func (r *refSched) add(e refEvent) {
	e.seq = r.seq
	r.seq++
	i := sort.Search(len(r.evs), func(i int) bool { return e.less(r.evs[i]) })
	r.evs = append(r.evs, refEvent{})
	copy(r.evs[i+1:], r.evs[i:])
	r.evs[i] = e
}

func (r *refSched) find(id int) int {
	for i := range r.evs {
		if r.evs[i].id == id {
			return i
		}
	}
	return -1
}

func (r *refSched) remove(i int) refEvent {
	e := r.evs[i]
	r.evs = append(r.evs[:i], r.evs[i+1:]...)
	return e
}

// fuzzDeltas are the delays a fuzz program picks from: the same instant,
// inside the current 65 µs tick (heap-resident once the tick is flushed),
// the level-0 and level-1 wheel horizons, and past both (heap again); the
// last is a Figure 4 probe's long delivery delay.
var fuzzDeltas = [...]Duration{0, 1, 100, Microsecond, 10 * Microsecond, 70 * Microsecond,
	Millisecond, 20 * Millisecond, Second, 5 * Second, 50 * Millisecond}

// fuzzOffsets are how far an asserted genealogy steps back per generation.
var fuzzOffsets = [...]Duration{0, 1, Microsecond, 100 * Microsecond}

// Fuzz program opcodes. Every op is three bytes {op, a, b}; every firing
// consumes one more byte first: how many of the following ops run inside
// its callback.
const (
	fzAfter = iota
	fzAfterArg
	fzAtAsOf
	fzCancel
	fzRearm
	fzRearmAsOf
	fzRunUntil
	fzStep
	fzReset
	fzOps
)

// schedFuzz runs one program against a Scheduler and the reference in
// lockstep.
type schedFuzz struct {
	t    *testing.T
	s    *Scheduler
	ref  refSched
	prog []byte

	handles []Timer   // by event id; replaced on Rearm
	cur     *refEvent // the firing event, nil outside a callback
	rearmed bool
	drained []int
}

func (z *schedFuzz) next() byte {
	if len(z.prog) == 0 {
		return 0
	}
	b := z.prog[0]
	z.prog = z.prog[1:]
	return b
}

func fuzzDelta(b byte) Duration { return fuzzDeltas[int(b)%len(fuzzDeltas)] }

// fuzzLineage derives a valid asserted genealogy for due time t from one byte.
func fuzzLineage(t Time, b byte) (a1, a2, a3 Time) {
	back := func(t Time, off Duration) Time {
		if Duration(t) < off {
			return 0
		}
		return t.Add(-off)
	}
	a1 = back(t, fuzzOffsets[b&3])
	a2 = back(a1, fuzzOffsets[b>>2&3])
	a3 = back(a2, fuzzOffsets[b>>4&3])
	return
}

// arm schedules a new event in both schedulers, through whichever of the
// four arming entry points matches.
func (z *schedFuzz) arm(t, a1, a2, a3 Time, asOf, arg bool) {
	id := len(z.handles)
	var tm Timer
	switch {
	case asOf && arg:
		tm = z.s.AtArgAsOf(t, a1, a2, a3, z.fireArg, id)
	case asOf:
		tm = z.s.AtAsOf(t, a1, a2, a3, func() { z.fire(id) })
	case arg:
		tm = z.s.AfterArg(t.Sub(z.s.Now()), z.fireArg, id)
	default:
		tm = z.s.After(t.Sub(z.s.Now()), func() { z.fire(id) })
	}
	z.handles = append(z.handles, tm)
	z.ref.add(refEvent{t: t, a1: a1, a2: a2, a3: a3, id: id, arg: arg})
}

func (z *schedFuzz) fireArg(arg any) { z.fire(arg.(int)) }

// fire is every event's callback: the real scheduler fired id, so the
// reference's minimum must be id, with the same time and lineage. Then a
// program-chosen number of ops run inside the callback.
func (z *schedFuzz) fire(id int) {
	if len(z.ref.evs) == 0 {
		z.t.Fatalf("event %d fired with the reference empty", id)
	}
	want := z.ref.remove(0)
	if want.id != id || z.s.Now() != want.t {
		z.t.Fatalf("fired event %d at %v, reference says %d at %v", id, z.s.Now(), want.id, want.t)
	}
	if a1, a2 := z.s.FiringLineage(); a1 != want.a1 || a2 != want.a2 {
		z.t.Fatalf("event %d lineage (%v, %v), reference (%v, %v)", id, a1, a2, want.a1, want.a2)
	}
	z.ref.now, z.ref.inFire, z.ref.fa1, z.ref.fa2 = want.t, true, want.a1, want.a2
	z.cur, z.rearmed = &want, false
	for n := z.next() % 3; n > 0; n-- {
		z.op()
	}
	z.ref.inFire = false
	z.cur = nil
}

// op decodes and executes one program step in both schedulers, then checks
// that they agree. RunUntil, Step and Reset run only between firings.
func (z *schedFuzz) op() {
	op, a, b := z.next()%fzOps, z.next(), z.next()
	s := z.s
	t := s.Now().Add(fuzzDelta(a))
	n1, n2, n3 := z.ref.armedNow()
	top := z.cur == nil
	switch op {
	case fzAfter:
		z.arm(t, n1, n2, n3, false, false)
	case fzAfterArg:
		z.arm(t, n1, n2, n3, false, true)
	case fzAtAsOf:
		a1, a2, a3 := fuzzLineage(t, b)
		z.arm(t, a1, a2, a3, true, b&64 != 0)
	case fzCancel:
		if len(z.handles) == 0 {
			break
		}
		id := int(a) % len(z.handles)
		s.Cancel(z.handles[id])
		if i := z.ref.find(id); i >= 0 {
			z.ref.remove(i)
		}
	case fzRearm, fzRearmAsOf:
		if top || z.rearmed {
			break
		}
		z.rearmed = true
		if op == fzRearmAsOf {
			n1, n2, n3 = fuzzLineage(t, b)
			z.handles[z.cur.id] = s.RearmAsOf(t, n1, n2, n3)
		} else {
			z.handles[z.cur.id] = s.Rearm(t)
		}
		z.ref.add(refEvent{t: t, a1: n1, a2: n2, a3: n3, id: z.cur.id, arg: z.cur.arg})
	case fzRunUntil:
		if !top {
			break
		}
		s.RunUntil(t)
		if len(z.ref.evs) > 0 && z.ref.evs[0].t <= t {
			z.t.Fatalf("RunUntil(%v) left event %d due at %v", t, z.ref.evs[0].id, z.ref.evs[0].t)
		}
		if s.Now() != t {
			z.t.Fatalf("RunUntil(%v) left the clock at %v", t, s.Now())
		}
		z.ref.now = t
	case fzStep:
		if !top {
			break
		}
		if want := len(z.ref.evs) > 0; s.Step() != want {
			z.t.Fatalf("Step() = %v with %d reference events", !want, len(z.ref.evs))
		}
	case fzReset:
		if top {
			z.reset()
		}
	}
	z.check()
}

// reset resets both schedulers and checks that exactly the arguments of the
// still-pending argument-carrying events reached the drain, once each.
func (z *schedFuzz) reset() {
	var want []int
	for _, e := range z.ref.evs {
		if e.arg {
			want = append(want, e.id)
		}
	}
	z.drained = z.drained[:0]
	z.s.Reset()
	sort.Ints(want)
	sort.Ints(z.drained)
	if len(want) != len(z.drained) {
		z.t.Fatalf("Reset drained %v, want %v", z.drained, want)
	}
	for i := range want {
		if want[i] != z.drained[i] {
			z.t.Fatalf("Reset drained %v, want %v", z.drained, want)
		}
	}
	z.ref = refSched{evs: z.ref.evs[:0]}
}

// check compares everything observable — Pending and every handle ever
// issued — and then the scheduler's structural invariants: one entry per
// event, no freelisted event behind an entry, a level-0 occupancy map and
// count that match the slots, and a heap ordered by the full key as read
// through the events right now.
func (z *schedFuzz) check() {
	s, t := z.s, z.t
	if s.Pending() != len(z.ref.evs) {
		t.Fatalf("Pending() = %d, reference holds %d", s.Pending(), len(z.ref.evs))
	}
	for id, tm := range z.handles {
		var want Time
		i := z.ref.find(id)
		if i >= 0 {
			want = z.ref.evs[i].t
		}
		if tm.Pending() != (i >= 0) || tm.Time() != want {
			t.Fatalf("handle %d: pending=%v time=%v, reference pending=%v time=%v",
				id, tm.Pending(), tm.Time(), i >= 0, want)
		}
	}
	owned := map[*event]bool{}
	live := 0
	own := func(en entry, inHeap bool) {
		if owned[en.e] {
			t.Fatalf("two entries reference one event (t=%v seq=%d)", en.t, en.seq)
		}
		owned[en.e] = true
		if en.e.dead && !inHeap {
			t.Fatalf("tombstone in a wheel slot (t=%v seq=%d)", en.t, en.seq)
		}
		if !en.e.dead {
			live++
		}
	}
	for _, en := range s.queue {
		own(en, true)
	}
	for i := range s.slots0 {
		for _, en := range s.slots0[i] {
			own(en, false)
		}
		for _, en := range s.slots1[i] {
			own(en, false)
		}
	}
	if live != s.Pending() {
		t.Fatalf("%d live entries, Pending() = %d", live, s.Pending())
	}
	stored0 := 0
	for i := range s.slots0 {
		stored0 += len(s.slots0[i])
		if set := s.occ0[i/64]>>(i%64)&1 == 1; set != (len(s.slots0[i]) > 0) {
			t.Fatalf("level-0 slot %d holds %d entries, occupancy bit %v", i, len(s.slots0[i]), set)
		}
	}
	if stored0 != s.count0 {
		t.Fatalf("level-0 slots hold %d entries, count0 = %d", stored0, s.count0)
	}
	for e := s.free; e != nil; e = e.next {
		if owned[e] {
			t.Fatal("freelisted event is still referenced by an entry")
		}
	}
	key := func(en entry) refEvent {
		return refEvent{t: en.t, a1: en.e.armT, a2: en.e.armT2, a3: en.e.armT3, seq: en.seq}
	}
	for i := 1; i < len(s.queue); i++ {
		if key(s.queue[i]).less(key(s.queue[(i-1)/4])) {
			t.Fatalf("heap order violated at %d: an entry's keys changed under it", i)
		}
	}
}

// FuzzScheduler runs random programs of every arming, cancelling, running
// and resetting call against a sorted-slice reference ordered by the
// full (t, armT, armT2, armT3, seq) key, and requires identical firing
// order, Pending(), Timer.Pending()/Time() and reset drains, plus the
// one-entry-per-event invariants the narrow entry depends on.
func FuzzScheduler(f *testing.F) {
	const (
		d100ns = 2 // indices into fuzzDeltas
		d1us   = 3
		d10us  = 4
		d70us  = 5
		d1ms   = 6
		d20ms  = 7
		d1s    = 8
		d5s    = 9
		d50ms  = 10
	)
	// Heap-resident cancel-then-reuse: run to 1 ms so the current tick is
	// flushed and everything armed inside it goes to the heap; arm, cancel,
	// then arm again — the freed struct must not be reused while the
	// tombstone entry still sorts by it.
	f.Add([]byte{
		fzAfter, d1ms, 0,
		fzRunUntil, d1ms, 0, 0,
		fzAfter, d10us, 0,
		fzCancel, 1, 0,
		fzAtAsOf, d1us, 0x15,
		fzAfterArg, d10us, 0,
		fzRunUntil, d1ms, 0, 0, 0,
	})
	// Ties inside the current tick: three heap residents due at the same
	// instant order by genealogy, behind an event that re-arms itself with
	// an asserted genealogy from inside its callback.
	f.Add([]byte{
		fzAfter, d1ms, 0,
		fzRunUntil, d1ms, 0, 0,
		fzAtAsOf, d10us, 0x02,
		fzAfter, d10us, 0,
		fzAtAsOf, d10us, 0x00,
		fzAfterArg, d1us, 0,
		fzRunUntil, d1us, 0, 1,
		fzRearmAsOf, d10us, 0x01,
		fzRunUntil, d1ms, 0,
	})
	// Wheel residents, a cascade, and a Reset with live arguments and a
	// tombstone pending.
	f.Add([]byte{
		fzAfterArg, 7, 0,
		fzAfterArg, 8, 0,
		fzAfterArg, 9, 0,
		fzCancel, 2, 0,
		fzRunUntil, 5, 0,
		fzReset, 0, 0,
		fzAfterArg, 5, 0,
		fzStep, 0, 0, 1,
		fzRearm, 6, 0,
	})
	// The probe shape: a 1 ms timer re-arming itself from its own callback,
	// each firing also arming a 20 or 50 ms delivery, so the wheel cursor
	// jumps ~15 empty level-0 slots between firings and deliveries tie with
	// probes at the same nanosecond. Every firing reads its op count first,
	// so the bytes follow the firing order: at each millisecond the due
	// deliveries (armed earlier) fire before the probe.
	const probes = 40
	probe := []byte{fzAfter, d1ms, 0, fzRunUntil, d1s, 0}
	for ms := 1; ms <= probes+50; ms++ {
		for _, k := range []int{ms - 20, ms - 50} {
			if k >= 1 && k <= probes && (k%2 == 0) == (ms-k == 20) {
				probe = append(probe, 0) // a delivery fires, arming nothing
			}
		}
		if ms <= probes {
			d := byte(d50ms)
			if ms%2 == 0 {
				d = d20ms
			}
			probe = append(probe, 2, fzRearm, d1ms, 0, fzAfterArg, d, 0)
		}
	}
	f.Add(probe)
	// A heap head due mid-gap: an event armed 5 s out overflows to the
	// heap; the clock idles up to 1 ms before it, and an event armed then
	// lands two ticks past it in level 0. The cursor's jumps must stop at
	// the level-1 boundary, then at the head's tick + 1, for the head to
	// fire first.
	midGap := []byte{fzAfter, d5s, 0, fzRunUntil, d70us, 0}
	for _, step := range []struct{ d, n byte }{{d1s, 4}, {d20ms, 49}, {d1ms, 19}} {
		for k := byte(0); k < step.n; k++ {
			midGap = append(midGap, fzRunUntil, step.d, 0)
		}
	}
	midGap = append(midGap, fzAfter, d1ms, 0, fzAtAsOf, d1ms, 0x05, fzRunUntil, d20ms, 0, 0, 0, 0)
	f.Add(midGap)
	// A gap across a level-1 boundary: at 16 ms the cursor sits in slot
	// 244, and an event 1 ms out lands in slot 3 of the ring's next pass;
	// the cursor must cascade at the boundary, then reach slot 3. A cancel
	// empties a slot on the way, and a Reset abandons a level-0 resident.
	wrap := []byte{}
	for k := 0; k < 16; k++ {
		wrap = append(wrap, fzRunUntil, d1ms, 0)
	}
	wrap = append(wrap,
		fzAfter, d1ms, 0,
		fzAfter, d100ns, 0,
		fzAfter, d70us, 0,
		fzCancel, 2, 0,
		fzRunUntil, d20ms, 0, 0, 0,
		fzAfter, d1ms, 0,
		fzReset, 0, 0)
	f.Add(wrap)
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 3*256 {
			prog = prog[:3*256]
		}
		z := &schedFuzz{t: t, s: NewScheduler(), prog: prog}
		z.s.SetResetDrain(func(arg any) { z.drained = append(z.drained, arg.(int)) })
		for len(z.prog) > 0 {
			z.op()
		}
		z.s.Run()
		z.check()
		if len(z.ref.evs) != 0 {
			t.Fatalf("Run() left %d reference events", len(z.ref.evs))
		}
		z.reset()
		z.check()
	})
}
