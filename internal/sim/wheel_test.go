package sim

import (
	"math/rand"
	"sort"
	"testing"
)

// tickDur converts level-0 ticks to a Duration, for tests that want to
// land events in specific wheel slots.
const tickDur = Duration(1) << tick0Bits

// Events spread across more ticks than level 0 has slots force the wheel
// cursor to wrap (slot indexes are reused for later ticks) — every event
// must still fire exactly once, in time order.
func TestWheelSlotRollover(t *testing.T) {
	s := NewScheduler()
	const n = 3 * wheelSlots // three full level-0 wraps
	fired := make([]Time, 0, n)
	for i := n - 1; i >= 0; i-- {
		s.At(Time(Duration(i)*tickDur+tickDur/2), func() { fired = append(fired, s.Now()) })
	}
	s.Run()
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i] < fired[i-1] {
			t.Fatalf("out of order at %d: %v after %v", i, fired[i], fired[i-1])
		}
	}
}

// Cancelling an event that is resident in a wheel slot must remove it
// eagerly: the slot shrinks, Pending drops, and the event never fires.
func TestWheelCancelInWheel(t *testing.T) {
	s := NewScheduler()
	// One event per level: level 0 (within ~16.8 ms) and level 1 (within
	// ~4.29 s), plus neighbors in the same slots that must survive.
	e0 := s.After(10*tickDur, func() { t.Fatal("cancelled level-0 event fired") })
	ok0 := false
	s.After(10*tickDur, func() { ok0 = true })
	e1 := s.After(200*Millisecond, func() { t.Fatal("cancelled level-1 event fired") })
	ok1 := false
	s.After(200*Millisecond, func() { ok1 = true })
	if s.Pending() != 4 {
		t.Fatalf("pending = %d, want 4", s.Pending())
	}
	s.Cancel(e0)
	s.Cancel(e1)
	if s.Pending() != 2 {
		t.Fatalf("pending after cancel = %d, want 2", s.Pending())
	}
	if s.count0+s.count1 != 2 {
		t.Fatalf("wheel holds %d entries after eager cancel, want 2", s.count0+s.count1)
	}
	s.Run()
	if !ok0 || !ok1 {
		t.Fatalf("surviving slot neighbors did not fire: ok0=%v ok1=%v", ok0, ok1)
	}
}

// An event beyond the level-1 horizon overflows to the heap; it must still
// interleave in exact time order with wheel-resident events, including
// ties broken by insertion sequence.
func TestWheelOverflowToHeapOrdering(t *testing.T) {
	s := NewScheduler()
	var fired []int
	far := 6 * Second // beyond the ~4.29 s level-1 horizon: heap-resident
	s.After(far, func() { fired = append(fired, 2) })
	s.After(far+Millisecond, func() { fired = append(fired, 3) })
	s.After(50*Millisecond, func() { fired = append(fired, 0) }) // level 1
	s.After(3*tickDur, func() { fired = append(fired, 1) })      // level 0
	// Same-time tie across placements: heap-overflow first by sequence.
	s.At(Time(far), func() { fired = append(fired, 4) })
	s.Run()
	want := []int{1, 0, 2, 4, 3}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v", fired)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("order = %v, want %v", fired, want)
		}
	}
}

// Reset with entries still parked in wheel slots must empty both levels
// and recycle their events, leaving the scheduler bit-identical to fresh.
func TestWheelResetWithPendingEntries(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		s.After(Duration(i+1)*tickDur, func() { t.Fatal("stale level-0 event fired") })
		s.After(Duration(i+1)*100*Millisecond, func() { t.Fatal("stale level-1 event fired") })
	}
	s.After(10*Second, func() { t.Fatal("stale heap event fired") })
	// Advance the cursors mid-wheel without firing anything: peeking
	// flushes the first slots but the earliest event is past the target.
	s.RunUntil(Time(tickDur / 2))
	s.Reset()
	if s.Pending() != 0 || s.count0 != 0 || s.count1 != 0 || len(s.queue) != 0 {
		t.Fatalf("reset left state: pending=%d count0=%d count1=%d heap=%d",
			s.Pending(), s.count0, s.count1, len(s.queue))
	}
	if s.Now() != 0 || s.cur0 != 0 || s.cur1 != 0 {
		t.Fatalf("reset left clock/cursors: now=%v cur0=%d cur1=%d", s.Now(), s.cur0, s.cur1)
	}
	// A post-reset run behaves exactly like a fresh scheduler's.
	n := 0
	s.After(tickDur, func() { n++ })
	s.After(300*Millisecond, func() { n++ })
	s.Run()
	if n != 2 || s.Fired() != 2 {
		t.Fatalf("post-reset run: n=%d fired=%d", n, s.Fired())
	}
}

// A level-1 slot index is reused for ticks a full wrap apart. An event
// inserted mid-run whose tick lands on an already-cascaded slot index must
// wait for its own tick's cascade, not fire early or get lost.
func TestWheelLevel1SlotReuseAcrossWrap(t *testing.T) {
	s := NewScheduler()
	var fired []int
	soon := Duration(2) << tick1Bits // level-1 tick 2
	late := soon + (Duration(wheelSlots) << tick1Bits)
	s.After(soon, func() { fired = append(fired, 0) })
	// Keep the wheel advancing so the clock reaches 'soon' while the
	// far event is still outside every horizon.
	s.After(soon+Millisecond, func() {
		s.After(late-Duration(s.Now())-Millisecond, func() { fired = append(fired, 2) })
		fired = append(fired, 1)
	})
	s.Run()
	want := []int{0, 1, 2}
	if len(fired) != 3 || fired[0] != 0 || fired[1] != 1 || fired[2] != 2 {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
}

// After the wheels drain, heap-only activity can carry the clock far past
// the wheel cursors. The next schedule must re-base the cursors so
// near-future events keep getting O(1) wheel placement — and, above all,
// keep firing correctly.
func TestWheelRebaseAfterIdle(t *testing.T) {
	s := NewScheduler()
	s.After(6*Second, func() {}) // heap-resident (beyond level-1 horizon)
	s.RunUntil(Time(6 * Second))
	n := 0
	s.After(3*tickDur, func() { n++ }) // should re-base and land in level 0
	if s.count0 != 1 {
		t.Fatalf("near-future event not wheel-placed after re-base: count0=%d", s.count0)
	}
	s.Run()
	if n != 1 {
		t.Fatal("re-based event did not fire")
	}
}

// The cursor's jump over empty level-0 slots must stop at the tick after a
// heap head's, as a slot-by-slot walk would, even when the next occupied
// slot lies beyond it. Firing order alone cannot tell: a cursor that
// overshoots still fires the head first, but it changes which later events
// go to the heap, and with them the comparisons AmbiguousTies counts.
func TestWheelJumpStopsAtHeapHead(t *testing.T) {
	s := NewScheduler()
	head := Time(5 * Second)
	s.At(head, func() {}) // beyond the level-1 horizon: heap-resident
	s.RunUntil(head - Time(Millisecond) + Time(70*Microsecond))
	s.After(Millisecond, func() {}) // two ticks past the head, in level 0
	s.Step()
	if s.Now() != head {
		t.Fatalf("first firing at %v, want the heap head at %v", s.Now(), head)
	}
	if want := int64(head)>>tick0Bits + 1; s.cur0 != want {
		t.Fatalf("cursor at tick %d after the head fired, want %d", s.cur0, want)
	}
}

// Property: a wheel-fronted scheduler fires any random workload — delays
// spanning both wheel horizons and the heap overflow, with random
// cancellations — in exactly the order the (time, sequence) contract
// demands.
func TestWheelOrderEquivalenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		s := NewScheduler()
		type ev struct {
			t   Time
			seq int
		}
		var want []ev
		var got []ev
		n := 50 + rng.Intn(150)
		timers := make([]Timer, 0, n)
		for i := 0; i < n; i++ {
			// Mix magnitudes: sub-tick, level 0, level 1, and far heap.
			var d Duration
			switch rng.Intn(4) {
			case 0:
				d = Duration(rng.Int63n(int64(tickDur)))
			case 1:
				d = Duration(rng.Int63n(int64(tickDur) * wheelSlots))
			case 2:
				d = Duration(rng.Int63n(int64(Second) * 4))
			default:
				d = Duration(rng.Int63n(int64(Second) * 20))
			}
			i := i
			timers = append(timers, s.After(d, func() { got = append(got, ev{s.Now(), i}) }))
			want = append(want, ev{Time(d), i})
		}
		cancelled := make(map[int]bool)
		for k := 0; k < n/4; k++ {
			j := rng.Intn(n)
			if !cancelled[j] {
				s.Cancel(timers[j])
				cancelled[j] = true
			}
		}
		live := want[:0]
		for _, w := range want {
			if !cancelled[w.seq] {
				live = append(live, w)
			}
		}
		sort.SliceStable(live, func(a, b int) bool { return live[a].t < live[b].t })
		s.Run()
		if len(got) != len(live) {
			t.Fatalf("trial %d: fired %d, want %d", trial, len(got), len(live))
		}
		for i := range live {
			if got[i] != live[i] {
				t.Fatalf("trial %d: event %d = %+v, want %+v", trial, i, got[i], live[i])
			}
		}
	}
}

// relFiring is one fired event of idlePrefixProgram: its time relative to the
// program's start and its id.
type relFiring struct {
	t  Duration
	id int
}

// idlePrefixProgram arms a fixed program at s.Now() and runs it to
// completion, returning the firings relative to that start. A 1 ms probe
// timer re-arms itself 300 times (each gap ~15 empty level-0 slots, the
// whole run past a level-1 boundary many times); every tenth firing arms a
// pair of deliveries due at the same nanosecond 20 ms out; an AtAsOf
// stand-in ties with a delivery, ordered by its asserted genealogy; one
// delivery is cancelled before it is due; and an event 4.5 s out starts in
// the heap, past the level-1 horizon.
func idlePrefixProgram(s *Scheduler) []relFiring {
	start := s.Now()
	var got []relFiring
	rec := func(id int) func() {
		return func() { got = append(got, relFiring{s.Now().Sub(start), id}) }
	}
	var doomed Timer
	probes := 0
	var probe func()
	probe = func() {
		got = append(got, relFiring{s.Now().Sub(start), 0})
		if probes%10 == 0 {
			s.After(20*Millisecond, rec(1000+probes))
			s.After(20*Millisecond, rec(2000+probes))
		}
		if probes == 40 {
			s.Cancel(doomed)
		}
		if probes++; probes < 300 {
			s.Rearm(s.Now().Add(Millisecond))
		}
	}
	s.After(Millisecond, probe)
	// Due with the deliveries probe 50 arms, but asserted as armed 10 µs
	// before them, so it fires first whatever the residency.
	at := start.Add(71 * Millisecond)
	s.AtAsOf(at, at.Add(-20*Millisecond-10*Microsecond), start, start, rec(3))
	doomed = s.At(start.Add(55*Millisecond), rec(4))
	s.After(4500*Millisecond, rec(5))
	s.Run()
	return got
}

// TestIdlePrefixShift replays one program on a fresh scheduler and on one
// first run idle to T = 5 s + 12,345 ns — past the level-1 horizon and not
// on a tick boundary, so the wheel re-bases and every event lands in
// different slots and ticks. The firing sequences, relative to each run's
// start, must be equal: shifting a world in time shifts its trace.
func TestIdlePrefixShift(t *testing.T) {
	const T = Time(5*Second + 12345)
	want := idlePrefixProgram(NewScheduler())
	shifted := NewScheduler()
	shifted.RunUntil(T)
	got := idlePrefixProgram(shifted)
	if len(want) != 300+60+2 {
		t.Fatalf("fresh run fired %d events, want %d", len(want), 300+60+2)
	}
	if len(got) != len(want) {
		t.Fatalf("shifted run fired %d events, fresh %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("firing %d: shifted (t−T, id) = %v, fresh %v", i, got[i], want[i])
		}
	}
}
