package exp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// fleetFold runs a fleet whose merge is deliberately order-sensitive (a
// non-commutative fold) and returns the merge order plus the fold value.
func fleetFold(t *testing.T, shards, n int) ([]int, uint64) {
	t.Helper()
	var order []int
	var fold uint64 = 1469598103934665603
	err := Fleet(FleetOptions{Seed: 42, Shards: shards}, n,
		func(i int, seed int64, a *Arena) (uint64, error) {
			if a == nil {
				t.Error("nil arena")
			}
			if seed != sim.SubSeed(42, int64(i)) {
				t.Errorf("world %d got seed %d", i, seed)
			}
			// Uneven work so completion order scrambles under parallelism.
			if i%7 == 0 {
				time.Sleep(time.Duration(i%3) * time.Millisecond)
			}
			return uint64(seed) ^ uint64(i), nil
		},
		func(i int, seed int64, v uint64, err error) error {
			if err != nil {
				return err
			}
			order = append(order, i)
			fold = (fold ^ v) * 1099511628211
			return nil
		})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	return order, fold
}

// TestFleetMergesInWorldOrder pins the merge order: merges arrive 0..n-1
// for every shard count, and the order-sensitive fold is shard-invariant.
func TestFleetMergesInWorldOrder(t *testing.T) {
	const n = 64
	var want uint64
	for _, shards := range []int{1, 2, 4, 16, 0} {
		order, fold := fleetFold(t, shards, n)
		if len(order) != n {
			t.Fatalf("shards=%d: %d merges, want %d", shards, len(order), n)
		}
		for i, idx := range order {
			if idx != i {
				t.Fatalf("shards=%d: merge %d got world %d", shards, i, idx)
			}
		}
		if shards == 1 {
			want = fold
		} else if fold != want {
			t.Fatalf("shards=%d: fold %x, want the sequential %x", shards, fold, want)
		}
	}
}

// TestFleetRunErrorReachesMerge pins non-fatal world failures: the error
// lands in merge with the right index and the fleet completes.
func TestFleetRunErrorReachesMerge(t *testing.T) {
	boom := errors.New("boom")
	var failed, merged int
	err := Fleet(FleetOptions{Shards: 4}, 20,
		func(i int, seed int64, a *Arena) (int, error) {
			if i%5 == 0 {
				return 0, boom
			}
			return i, nil
		},
		func(i int, seed int64, v int, err error) error {
			merged++
			if i%5 == 0 {
				if !errors.Is(err, boom) {
					return fmt.Errorf("world %d: err=%v, want boom", i, err)
				}
				failed++
			} else if err != nil || v != i {
				return fmt.Errorf("world %d: v=%d err=%v", i, v, err)
			}
			return nil
		})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if merged != 20 || failed != 4 {
		t.Fatalf("merged=%d failed=%d, want 20/4", merged, failed)
	}
}

// TestFleetRunPanicBecomesError pins panic capture on the run side.
func TestFleetRunPanicBecomesError(t *testing.T) {
	var got error
	err := Fleet(FleetOptions{Shards: 2}, 4,
		func(i int, seed int64, a *Arena) (int, error) {
			if i == 2 {
				panic("kaboom")
			}
			return i, nil
		},
		func(i int, seed int64, v int, err error) error {
			if i == 2 {
				got = err
			}
			return nil
		})
	if err != nil {
		t.Fatalf("fleet: %v", err)
	}
	if got == nil || !strings.Contains(got.Error(), "kaboom") {
		t.Fatalf("world 2 error = %v, want captured panic", got)
	}
}

// TestFleetMergeErrorAborts pins the abort path: after merge fails at
// world k, no later world merges, and Fleet returns the error.
func TestFleetMergeErrorAborts(t *testing.T) {
	stop := errors.New("stop")
	for _, shards := range []int{1, 4} {
		var last atomic.Int64
		last.Store(-1)
		err := Fleet(FleetOptions{Shards: shards}, 200,
			func(i int, seed int64, a *Arena) (int, error) { return i, nil },
			func(i int, seed int64, v int, err error) error {
				last.Store(int64(i))
				if i == 7 {
					return stop
				}
				return nil
			})
		if !errors.Is(err, stop) {
			t.Fatalf("shards=%d: err=%v, want stop", shards, err)
		}
		if last.Load() != 7 {
			t.Fatalf("shards=%d: last merged world %d, want 7", shards, last.Load())
		}
	}
}

// TestFleetMergePanicAborts pins panic capture on the merge side.
func TestFleetMergePanicAborts(t *testing.T) {
	err := Fleet(FleetOptions{Shards: 3}, 50,
		func(i int, seed int64, a *Arena) (int, error) { return i, nil },
		func(i int, seed int64, v int, err error) error {
			if i == 5 {
				panic("merge kaboom")
			}
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "merge kaboom") {
		t.Fatalf("err=%v, want captured merge panic", err)
	}
}

// TestFleetEmpty pins the trivial cases.
func TestFleetEmpty(t *testing.T) {
	err := Fleet(FleetOptions{}, 0,
		func(i int, seed int64, a *Arena) (int, error) { t.Error("run called"); return 0, nil },
		func(i int, seed int64, v int, err error) error { t.Error("merge called"); return nil })
	if err != nil {
		t.Fatalf("empty fleet: %v", err)
	}
}

// fleetWithin runs fleet on its own goroutine and fails the test if it has
// not returned within a generous timeout, so a worker that blocks where the
// reorder window should have let it go on fails instead of hanging.
func fleetWithin(t *testing.T, fleet func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fleet() }()
	select {
	case err := <-done:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("fleet did not return: a worker waited on a world it should not have")
		return nil
	}
}

// TestFleetWindowDecouplesShards pins the reorder window: with two shards,
// world 0 blocks until world W-1 has finished its run, which only the
// other shard can do by running worlds 1 … W-1 while world 0 is unmerged.
// A blocking turnstile (W = shards) deadlocks here. Every world also
// checks the window bound: it starts only once world i-W has merged.
func TestFleetWindowDecouplesShards(t *testing.T) {
	const shards, n = 2, 40
	w := windowSize(shards, n)
	if w <= shards {
		t.Fatalf("window %d does not exceed the shard count %d", w, shards)
	}
	lastRan := make(chan struct{})
	var merged atomic.Int64
	err := fleetWithin(t, func() error {
		return Fleet(FleetOptions{Shards: shards}, n,
			func(i int, seed int64, a *Arena) (int, error) {
				if m := int(merged.Load()); i >= m+w {
					return 0, fmt.Errorf("world %d started with %d merged, window %d", i, m, w)
				}
				switch i {
				case 0:
					<-lastRan
					// Nothing signals that the other shard has parked world
					// W-1 and blocked in admit(W), so give it the time to.
					// The assertions hold in every interleaving; without
					// the pause the abort usually reaches that shard at
					// forEach's stop poll instead of inside admit.
					time.Sleep(20 * time.Millisecond)
				case w - 1:
					close(lastRan)
				}
				return i, nil
			},
			func(i int, seed int64, v int, err error) error {
				if err != nil {
					return err
				}
				merged.Add(1)
				return nil
			})
	})
	if err != nil {
		t.Fatal(err)
	}
	if merged.Load() != n {
		t.Fatalf("merged %d worlds, want %d", merged.Load(), n)
	}
}

// TestFleetAbortWithFullWindow pins the abort path with the window full:
// world 0 finishes only after world W-1 has, so its merge fails with
// worlds 1 … W-1 parked behind it while the other shard waits in admit
// for world W. Fleet returns that error, merges nothing after world 0,
// starts no world past the window and leaves no worker waiting (it
// returns at all).
func TestFleetAbortWithFullWindow(t *testing.T) {
	const shards, n = 2, 100
	w := windowSize(shards, n)
	stop := errors.New("stop")
	lastRan := make(chan struct{})
	var runs atomic.Int64
	var merges []int
	err := fleetWithin(t, func() error {
		return Fleet(FleetOptions{Shards: shards}, n,
			func(i int, seed int64, a *Arena) (int, error) {
				runs.Add(1)
				switch i {
				case 0:
					<-lastRan
					// Nothing signals that the other shard has parked world
					// W-1 and blocked in admit(W), so give it the time to.
					// The assertions hold in every interleaving; without
					// the pause the abort usually reaches that shard at
					// forEach's stop poll instead of inside admit.
					time.Sleep(20 * time.Millisecond)
				case w - 1:
					close(lastRan)
				}
				return i, nil
			},
			func(i int, seed int64, v int, err error) error {
				merges = append(merges, i)
				if i == 0 {
					return stop
				}
				return nil
			})
	})
	if !errors.Is(err, stop) {
		t.Fatalf("err=%v, want stop", err)
	}
	if len(merges) != 1 || merges[0] != 0 {
		t.Fatalf("merged worlds %v, want only world 0", merges)
	}
	if runs.Load() != int64(w) {
		t.Fatalf("%d worlds ran, want the window's %d", runs.Load(), w)
	}
}

// TestFleetAnalyzerHandoff pins the handoff of arena analyzers: a world's
// analyzer stays with its parked result until the world merges, so no run
// ever receives an analyzer whose world has not merged yet, and merge sees
// the analyzer its world filled, untouched.
func TestFleetAnalyzerHandoff(t *testing.T) {
	const n = 120
	for _, shards := range []int{1, 2, 4} {
		var mu sync.Mutex
		live := map[*analysis.Streaming]int{} // analyzer → world, from run to merge
		err := fleetWithin(t, func() error {
			return Fleet(FleetOptions{Seed: 7, Shards: shards}, n,
				func(i int, seed int64, a *Arena) (*analysis.Streaming, error) {
					an, err := a.Analyzer(100*sim.Millisecond, analysis.Config{})
					if err != nil {
						return nil, err
					}
					mu.Lock()
					held, taken := live[an]
					live[an] = i
					mu.Unlock()
					if taken {
						return nil, fmt.Errorf("world %d got world %d's analyzer before it merged", i, held)
					}
					for k := 0; k < i%5+2; k++ {
						an.ObserveTime(sim.Time(k) * sim.Time(sim.Millisecond))
					}
					if i%7 == 0 {
						time.Sleep(time.Duration(i%3) * time.Millisecond)
					}
					return an, nil
				},
				func(i int, seed int64, an *analysis.Streaming, err error) error {
					if err != nil {
						return err
					}
					mu.Lock()
					held, ok := live[an]
					delete(live, an)
					mu.Unlock()
					if !ok || held != i {
						return fmt.Errorf("world %d merged an analyzer recorded for world %d (%v)", i, held, ok)
					}
					rep, err := an.Finalize()
					if err != nil {
						return err
					}
					if rep.N != i%5+2 {
						return fmt.Errorf("world %d: analyzer holds %d losses, want %d", i, rep.N, i%5+2)
					}
					return nil
				})
		})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
	}
}
