package exp

import (
	"fmt"
	"sync"

	"repro/internal/sim"
)

// FleetOptions configures a fleet run.
type FleetOptions struct {
	// Seed is the fleet's base seed. World i receives
	// sim.SubSeed(Seed, i), the same index-stable derivation Sweep uses.
	Seed int64
	// Shards bounds the number of concurrent workers. 0 means
	// runtime.GOMAXPROCS(0); 1 recovers fully sequential execution. The
	// merged outcome does not depend on it (see Fleet).
	Shards int
}

// Fleet runs n worlds across a shard pool and merges their results in
// strict world order — the engine under core.RunFleet and cmd/fleet.
//
// It differs from Sweep in one decisive way: Sweep materializes one
// Result per run, so a million-world campaign would hold a million
// reports; Fleet holds none. Each worker runs world i on its pooled
// Arena, then waits at a turnstile until every lower-indexed world has
// merged, calls merge(i, …) — still on the worker goroutine, while the
// world's arena-owned state is alive — and releases the arena scratch to
// the next world. Consequences:
//
//   - Memory is bounded by the shard count, not the fleet size: at most
//     one unmerged result exists per worker.
//   - The merge sequence is world 0, 1, 2, … regardless of Shards, so a
//     merge fold that is order-sensitive (reservoir sampling, float
//     accumulation) still produces byte-identical aggregates for any
//     shard count — the fleet-level analogue of Sweep's worker-count
//     invariance.
//   - The result value handed to merge may point into the worker's
//     arena (e.g. an arena-owned streaming analyzer): the arena is not
//     reused until merge returns.
//
// A run error or panic does not abort the fleet; it arrives at merge as
// that world's err for the caller to count or skip. An error (or panic)
// from merge itself aborts: no later world is merged and Fleet returns
// the error. There is no deadlock: the lowest unmerged index is always
// held by some worker, so the turnstile always advances.
func Fleet[R any](opts FleetOptions, n int,
	run func(index int, seed int64, a *Arena) (R, error),
	merge func(index int, seed int64, v R, err error) error) error {
	t := newTurnstile()
	forEach(n, Options{Workers: opts.Shards}.workers(n), t.aborted, func(i int, a *Arena) {
		seed := sim.SubSeed(opts.Seed, int64(i))
		v, err := protect(run, i, seed, a)
		if t.enter(i) { // false: aborted while waiting our turn
			t.leave(protectMerge(merge, i, seed, v, err))
		}
	})
	return t.err()
}

// turnstile serializes fleet merges into world-index order. Workers
// arrive with arbitrary indices; enter(i) blocks until index i is next
// (or the fleet aborted), leave publishes the merge outcome and admits
// the next index.
type turnstile struct {
	mu   sync.Mutex
	cond *sync.Cond
	next int
	fail error
}

func newTurnstile() *turnstile {
	t := &turnstile{}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// enter blocks until it is index i's turn to merge; it reports false
// when the fleet aborted instead.
func (t *turnstile) enter(i int) bool {
	t.mu.Lock()
	for t.fail == nil && t.next != i {
		t.cond.Wait()
	}
	ok := t.fail == nil
	t.mu.Unlock()
	return ok
}

// leave records the merge outcome for index next and admits next+1. A
// non-nil error aborts the fleet: every waiter wakes and declines.
func (t *turnstile) leave(err error) {
	t.mu.Lock()
	if err != nil && t.fail == nil {
		t.fail = err
	}
	t.next++
	t.cond.Broadcast()
	t.mu.Unlock()
}

func (t *turnstile) aborted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fail != nil
}

func (t *turnstile) err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fail
}

// protectMerge converts a merge panic into the fleet's abort error —
// unlike a world panic, a broken aggregator cannot be skipped.
func protectMerge[R any](merge func(int, int64, R, error) error, i int, seed int64, v R, err error) (merr error) {
	defer func() {
		if p := recover(); p != nil {
			merr = fmt.Errorf("exp: fleet merge of world %d (seed %d) panicked: %v", i, seed, p)
		}
	}()
	return merge(i, seed, v, err)
}
