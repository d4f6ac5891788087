package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestTimeConversions(t *testing.T) {
	if got := Dur(250 * time.Millisecond); got != 250*Millisecond {
		t.Fatalf("Dur = %v", got)
	}
	tt := Time(0).Add(2 * Second)
	if tt.Seconds() != 2.0 {
		t.Fatalf("Seconds = %v", tt.Seconds())
	}
	if tt.Sub(Time(Second)) != Second {
		t.Fatalf("Sub wrong")
	}
	if Time(1500000000).String() != "1.500000000s" {
		t.Fatalf("String = %q", Time(1500000000).String())
	}
	if Duration(Second).Seconds() != 1.0 {
		t.Fatalf("Duration.Seconds wrong")
	}
}

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.After(3*Second, func() { order = append(order, 3) })
	s.After(1*Second, func() { order = append(order, 1) })
	s.After(2*Second, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != Time(3*Second) {
		t.Fatalf("now = %v", s.Now())
	}
	if s.Fired() != 3 {
		t.Fatalf("fired = %d", s.Fired())
	}
}

func TestSchedulerFIFOTieBreak(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(Time(Second), func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", order)
		}
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.After(Second, func() { fired = true })
	if !e.Pending() || e.Time() != Time(Second) {
		t.Fatalf("timer not pending after schedule: %v %v", e.Pending(), e.Time())
	}
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if e.Pending() || e.Time() != 0 {
		t.Fatal("cancelled timer still pending")
	}
	// Cancelling a zero timer and double-cancel must not panic.
	s.Cancel(Timer{})
	s.Cancel(e)
}

func TestSchedulerCancelDuringRun(t *testing.T) {
	s := NewScheduler()
	var fired []int
	var e2 Timer
	s.After(1*Second, func() {
		fired = append(fired, 1)
		s.Cancel(e2)
	})
	e2 = s.After(2*Second, func() { fired = append(fired, 2) })
	s.After(3*Second, func() { fired = append(fired, 3) })
	s.Run()
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 3 {
		t.Fatalf("fired = %v", fired)
	}
}

// A fired timer's handle must become inert: the underlying event is
// recycled, and cancelling through the stale handle must not touch
// whatever the recycled event is scheduled for now.
func TestSchedulerStaleHandleIsInert(t *testing.T) {
	s := NewScheduler()
	first := s.After(Second, func() {})
	s.Run()
	if first.Pending() {
		t.Fatal("fired timer still pending")
	}
	secondRan := false
	second := s.After(Second, func() { secondRan = true })
	s.Cancel(first) // stale: must not cancel the recycled event
	s.Run()
	if !secondRan {
		t.Fatal("stale Cancel hit a recycled event")
	}
	if second.Pending() {
		t.Fatal("fired second timer still pending")
	}
}

func TestSchedulerAfterArg(t *testing.T) {
	s := NewScheduler()
	type payload struct{ n int }
	var got []int
	deliver := func(a any) { got = append(got, a.(*payload).n) }
	s.AfterArg(2*Second, deliver, &payload{2})
	s.AfterArg(1*Second, deliver, &payload{1})
	s.AfterArg(3*Second, deliver, &payload{3})
	tm := s.AfterArg(4*Second, deliver, &payload{4})
	s.Cancel(tm)
	s.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("arg events = %v", got)
	}
}

// The steady-state scheduling path must not allocate: events come from the
// per-world freelist and heap capacity is reused.
func TestSchedulerSteadyStateAllocFree(t *testing.T) {
	s := NewScheduler()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 1000 {
			s.After(Millisecond, tick)
		}
	}
	// Warm up the freelist and the heap capacity.
	s.After(Millisecond, tick)
	s.Run()

	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		s.After(Millisecond, tick)
		s.Run()
	})
	if allocs > 1 { // tolerance for the testing harness itself
		t.Fatalf("steady-state run allocated %.1f times per op", allocs)
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler()
	var fired []int
	s.After(1*Second, func() { fired = append(fired, 1) })
	s.After(2*Second, func() { fired = append(fired, 2) })
	s.After(3*Second, func() { fired = append(fired, 3) })
	s.RunUntil(Time(2 * Second))
	if len(fired) != 2 {
		t.Fatalf("fired = %v, want events at t<=2s", fired)
	}
	if s.Now() != Time(2*Second) {
		t.Fatalf("now = %v", s.Now())
	}
	// Clock advances to the target even with an empty window.
	s.RunUntil(Time(2500 * Millisecond))
	if s.Now() != Time(2500*Millisecond) {
		t.Fatalf("now = %v", s.Now())
	}
	s.Run()
	if len(fired) != 3 {
		t.Fatalf("remaining event lost: %v", fired)
	}
}

// RunUntil must not stall on cancelled events parked at the heap top.
func TestSchedulerRunUntilSkipsTombstones(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		e := s.After(Duration(i+1)*Millisecond, func() { t.Fatal("cancelled event fired") })
		s.Cancel(e)
	}
	ran := false
	s.After(20*Millisecond, func() { ran = true })
	s.RunUntil(Time(30 * Millisecond))
	if !ran {
		t.Fatal("live event behind tombstones not reached")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after drain", s.Pending())
	}
}

func TestSchedulerRunFor(t *testing.T) {
	s := NewScheduler()
	n := 0
	var tick func()
	tick = func() {
		n++
		s.After(100*Millisecond, tick)
	}
	s.After(100*Millisecond, tick)
	s.RunUntil(s.Now().Add(1 * Second))
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
}

func TestSchedulerHalt(t *testing.T) {
	s := NewScheduler()
	n := 0
	for i := 1; i <= 5; i++ {
		i := i
		s.After(Duration(i)*Second, func() {
			n++
			if i == 2 {
				s.Halt()
			}
		})
	}
	s.Run()
	if n != 2 {
		t.Fatalf("halted after %d events, want 2", n)
	}
	s.Run() // resume
	if n != 5 {
		t.Fatalf("resume ran %d events, want 5", n)
	}
}

func TestSchedulerPastPanics(t *testing.T) {
	s := NewScheduler()
	s.After(Second, func() {})
	s.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	s.At(Time(0), func() {})
}

func TestSchedulerNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	var times []Time
	s.After(Second, func() {
		s.After(Second, func() {
			times = append(times, s.Now())
		})
		times = append(times, s.Now())
	})
	s.Run()
	if len(times) != 2 || times[0] != Time(Second) || times[1] != Time(2*Second) {
		t.Fatalf("times = %v", times)
	}
}

// Pending is a maintained counter: it must track schedule, cancel and fire
// exactly, including cancels whose tombstones still sit in the heap.
func TestSchedulerPending(t *testing.T) {
	s := NewScheduler()
	e := s.After(Second, func() {})
	s.After(2*Second, func() {})
	if s.Pending() != 2 {
		t.Fatalf("pending = %d", s.Pending())
	}
	s.Cancel(e)
	if s.Pending() != 1 {
		t.Fatalf("pending after cancel = %d", s.Pending())
	}
	s.Cancel(e) // double cancel must not decrement again
	if s.Pending() != 1 {
		t.Fatalf("pending after double cancel = %d", s.Pending())
	}
	s.Step()
	if s.Pending() != 0 {
		t.Fatalf("pending after fire = %d", s.Pending())
	}
}

// Property: for any set of delays, events fire in nondecreasing time order
// and the scheduler visits every one exactly once.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(delays []uint32) bool {
		if len(delays) > 200 {
			delays = delays[:200]
		}
		s := NewScheduler()
		var fired []Time
		for _, d := range delays {
			s.After(Duration(d), func() { fired = append(fired, s.Now()) })
		}
		s.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds yield identical event interleavings even under
// random cancellation (which exercises the lazy-deletion path heavily).
func TestSchedulerDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		s := NewScheduler()
		rng := rand.New(rand.NewSource(seed))
		var fired []Time
		var events []Timer
		for i := 0; i < 100; i++ {
			e := s.After(Duration(rng.Intn(1000))*Millisecond, func() {
				fired = append(fired, s.Now())
			})
			events = append(events, e)
		}
		for i := 0; i < 30; i++ {
			s.Cancel(events[rng.Intn(len(events))])
		}
		s.Run()
		return fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Heavy churn across many sizes exercises the 4-ary sift paths: every
// event must fire exactly once, in order, interleaved with cancellations.
func TestSchedulerChurnProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	s := NewScheduler()
	expected := 0
	var timers []Timer
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			timers = append(timers, s.After(Duration(rng.Intn(5000))*Microsecond, func() {}))
		}
		for i := 0; i < 10; i++ {
			tm := timers[rng.Intn(len(timers))]
			if tm.Pending() {
				s.Cancel(tm)
			}
		}
		live := 0
		for _, tm := range timers {
			if tm.Pending() {
				live++
			}
		}
		if live != s.Pending() {
			t.Fatalf("round %d: Pending()=%d, live handles=%d", round, s.Pending(), live)
		}
		expected += live
		before := s.Fired()
		s.Run()
		if got := int(s.Fired() - before); got != live {
			t.Fatalf("round %d: fired %d, want %d", round, got, live)
		}
		timers = timers[:0]
	}
	if int(s.Fired()) != expected {
		t.Fatalf("cumulative fired = %d, want %d", s.Fired(), expected)
	}
}

func TestSubSeedDistinct(t *testing.T) {
	seen := map[int64]bool{}
	for i := int64(0); i < 1000; i++ {
		s := SubSeed(7, i)
		if seen[s] {
			t.Fatalf("duplicate subseed at %d", i)
		}
		seen[s] = true
	}
	if SubSeed(1, 0) == SubSeed(2, 0) {
		t.Fatal("different parents collide")
	}
}

func TestExponentialMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	mean := 10 * Millisecond
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		d := Exponential(rng, mean)
		if d < 0 {
			t.Fatal("negative exponential draw")
		}
		sum += d.Seconds()
	}
	got := sum / n
	want := mean.Seconds()
	if got < 0.97*want || got > 1.03*want {
		t.Fatalf("exponential mean = %v, want ≈ %v", got, want)
	}
}

// The queue entry is what every heap sift, wheel append, slot flush and
// cascade copies and compares. PR 9 grew it from 32 to 56 bytes by putting
// the arming genealogy in it, and every event got ~44% dearer; the genealogy
// now lives on the event and is read only when due times tie. Anything that
// widens the entry past the pre-PR 9 size brings that tax back.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 32 {
		t.Fatalf("entry is %d bytes, want ≤ 32: keep cold ordering keys on the event", n)
	}
}

// AmbiguousTies counts only ties that fall through the whole genealogy to
// seq with an asserted (AsOf) lineage on one side; truthful ties and ties
// the genealogy resolves stay out of it, and Reset clears it.
func TestAmbiguousTies(t *testing.T) {
	s := NewScheduler()
	noop := func() {}
	due := Time(Millisecond)
	s.At(due, noop)
	s.At(due, noop)
	s.AtAsOf(due, due, 0, 0, noop)
	s.Run()
	if n := s.AmbiguousTies(); n != 0 {
		t.Fatalf("ties between truthful or genealogy-ordered events counted: %d", n)
	}
	due = s.Now().Add(Millisecond)
	s.At(due, noop)
	s.AtAsOf(due, s.Now(), s.Now(), s.Now(), noop) // differs from the At only in seq
	s.Run()
	if s.AmbiguousTies() == 0 {
		t.Fatal("a full-genealogy tie against an AsOf event was not counted")
	}
	s.Reset()
	if n := s.AmbiguousTies(); n != 0 {
		t.Fatalf("AmbiguousTies() = %d after Reset", n)
	}
}
