package sim

import "testing"

func TestSchedulerRearmChain(t *testing.T) {
	s := NewScheduler()
	var times []Time
	n := 0
	var tm Timer
	tick := func() {
		times = append(times, s.Now())
		if n++; n < 5 {
			tm = s.Rearm(s.Now().Add(Millisecond))
		}
	}
	tm = s.After(Millisecond, tick)
	s.Run()
	if len(times) != 5 {
		t.Fatalf("chain fired %d times, want 5", len(times))
	}
	for i, at := range times {
		if at != Time(Duration(i+1)*Millisecond) {
			t.Fatalf("fire %d at %v", i, at)
		}
	}
	if s.Fired() != 5 || s.Pending() != 0 {
		t.Fatalf("fired=%d pending=%d", s.Fired(), s.Pending())
	}
	if tm.Pending() {
		t.Fatal("finished chain still pending")
	}
}

// A rearmed chain keeps its argument, interleaves correctly with other
// events, and the returned handle cancels the chain.
func TestSchedulerRearmArgAndCancel(t *testing.T) {
	s := NewScheduler()
	var got []int
	var tm Timer
	fn := func(a any) {
		got = append(got, a.(int))
		tm = s.Rearm(s.Now().Add(Second))
	}
	tm = s.AfterArg(Second, fn, 7)
	other := 0
	s.After(2500*Millisecond, func() { other = len(got) })
	s.RunUntil(Time(3 * Second))
	if len(got) != 3 || got[0] != 7 || got[2] != 7 {
		t.Fatalf("got = %v", got)
	}
	if other != 2 {
		t.Fatalf("interleaved event saw %d chain fires, want 2", other)
	}
	s.Cancel(tm)
	s.Run()
	if len(got) != 3 {
		t.Fatalf("cancelled chain kept firing: %v", got)
	}
}

// During a callback the firing timer's own handle is already inert —
// Pending reports false, Cancel is a no-op — whether or not the callback
// goes on to Rearm.
func TestSchedulerRearmHandleInertDuringFire(t *testing.T) {
	s := NewScheduler()
	var tm Timer
	rearmed := false
	tm = s.After(Second, func() {
		if tm.Pending() {
			t.Error("handle pending during its own callback")
		}
		s.Cancel(tm) // must not disturb the upcoming Rearm
		if !rearmed {
			rearmed = true
			tm = s.Rearm(s.Now().Add(Second))
		}
	})
	s.Run()
	if !rearmed || s.Fired() != 2 {
		t.Fatalf("rearmed=%v fired=%d", rearmed, s.Fired())
	}
}

func TestSchedulerRearmOutsideCallbackPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Fatal("Rearm outside a callback did not panic")
		}
	}()
	s.Rearm(Time(Second))
}

// A rearm chain is the zero-allocation path: after warmup, N chained
// firings touch neither the allocator nor the freelist.
func TestSchedulerRearmAllocFree(t *testing.T) {
	s := NewScheduler()
	n := 0
	tick := func() {
		if n++; n < 1000 {
			s.Rearm(s.Now().Add(Millisecond))
		}
	}
	s.After(Millisecond, tick)
	s.Run()
	allocs := testing.AllocsPerRun(10, func() {
		n = 0
		s.After(Millisecond, tick)
		s.Run()
	})
	if allocs > 1 { // tolerance for the testing harness itself
		t.Fatalf("rearm chain allocated %.1f times per op", allocs)
	}
}

// Reset with a live rearm chain pending must recycle it like any other
// event and leave the scheduler bit-identical to a fresh one.
func TestSchedulerRearmThenReset(t *testing.T) {
	s := NewScheduler()
	s.After(Millisecond, func() { s.Rearm(s.Now().Add(Millisecond)) })
	for i := 0; i < 10; i++ {
		s.Step()
	}
	s.Reset()
	if s.Pending() != 0 || s.Now() != 0 || s.Fired() != 0 {
		t.Fatalf("reset left pending=%d now=%v fired=%d", s.Pending(), s.Now(), s.Fired())
	}
	ran := false
	s.After(Millisecond, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("scheduler dead after reset")
	}
}
