package exp

import (
	"fmt"
	"sync"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// FleetOptions configures a fleet run.
type FleetOptions struct {
	// Seed is the fleet's base seed. World i receives
	// sim.SubSeed(Seed, i), the same index-stable derivation Sweep uses.
	Seed int64
	// Shards bounds the number of concurrent workers. 0 means
	// runtime.GOMAXPROCS(0); 1 recovers fully sequential execution. The
	// merged outcome does not depend on it, and neither does peak memory
	// beyond a fixed number of parked worlds per shard (see Fleet).
	Shards int
}

// windowPerShard sizes the reorder window: a fleet parks at most
// windowPerShard finished-but-unmerged worlds per shard. At 1 a worker
// that gets one world ahead blocks behind the slowest unmerged world;
// EXPERIMENTS.md ("Fleet reorder window") records the sweep that chose 3,
// past which worker idle time stops falling.
const windowPerShard = 3

// windowSize is the number of worlds a fleet of n worlds on the given
// number of shards may hold between finishing a run and merging it.
func windowSize(shards, n int) int {
	return min(windowPerShard*shards, n)
}

// Fleet runs n worlds across a shard pool and merges their results in
// strict world order — the engine under core.RunFleet and cmd/fleet.
//
// It differs from Sweep in one decisive way: Sweep materializes one
// Result per run, so a million-world campaign would hold a million
// reports; Fleet holds at most a window of them. Each worker runs world i
// on its pooled Arena, parks the result — together with the arena's
// streaming analyzer, which the result may point at — in slot i mod W of
// a reorder window, and goes straight on to its next world. Whichever
// worker parks the lowest unmerged world merges it and every consecutive
// parked world after it, calling merge(i, …) in order and one at a time,
// then hands each merged world's analyzer back to a pool from which arenas
// draw their next one. A worker takes world i only while
// i < next + W, where next is the lowest unmerged world and W is
// windowSize(shards, n). Consequences:
//
//   - Memory is bounded by the shard count, not the fleet size: at most W
//     results and their analyzers are parked, plus one arena per worker.
//   - A slow world stalls no other shard until W worlds wait behind it;
//     with one shard the window degenerates to run-then-merge.
//   - The merge sequence is world 0, 1, 2, … regardless of Shards, so a
//     merge fold that is order-sensitive (reservoir sampling, float
//     accumulation) still produces byte-identical aggregates for any
//     shard count — the fleet-level analogue of Sweep's worker-count
//     invariance.
//   - merge may run on a different worker's goroutine than the one that
//     ran the world. Every handoff goes through the window's mutex, so
//     merges never overlap and each sees the previous one's writes; merge
//     itself runs without the mutex held.
//   - The result value handed to merge may point into the worker's arena
//     only through the arena's analyzer (Arena.Analyzer), which the
//     arena gives up when the world is parked. Everything else in it
//     must be detached, because the worker reuses its arena at once.
//
// A run error or panic does not abort the fleet; it arrives at merge as
// that world's err for the caller to count or skip. An error (or panic)
// from merge itself aborts: no later world is merged, no worker waits for
// a slot, and Fleet returns the error. There is no deadlock: the lowest
// unmerged world is always held by some worker, which admits it, and once
// it is parked the merging worker, or its own, merges it.
func Fleet[R any](opts FleetOptions, n int,
	run func(index int, seed int64, a *Arena) (R, error),
	merge func(index int, seed int64, v R, err error) error) error {
	shards := Options{Workers: opts.Shards}.workers(n)
	w := &window[R]{slots: make([]parked[R], windowSize(shards, n)), merge: merge}
	w.cond.L = &w.mu
	aborted := func() bool { return w.err() != nil }
	forEach(n, shards, aborted, func(i int, a *Arena) {
		if !w.admit(i) { // aborted while waiting for a slot
			return
		}
		seed := sim.SubSeed(opts.Seed, int64(i))
		v, err := protect(run, i, seed, a)
		w.park(i, parked[R]{full: true, seed: seed, v: v, err: err, an: a.takeAnalyzer()})
	})
	return w.err()
}

// parked is one finished world waiting in the window for its merge.
type parked[R any] struct {
	full bool
	seed int64
	v    R
	err  error
	an   *analysis.Streaming
}

// window is a fleet's reorder window: a ring of parked worlds indexed by
// world mod len(slots), the lowest unmerged world and the abort error, all
// guarded by mu. cond wakes workers waiting in admit when next advances or
// the fleet aborts.
type window[R any] struct {
	mu    sync.Mutex
	cond  sync.Cond
	slots []parked[R]
	next  int
	fail  error
	merge func(int, int64, R, error) error
}

// admit blocks until world i fits in the window; it reports false when the
// fleet aborted instead.
func (w *window[R]) admit(i int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	for w.fail == nil && i >= w.next+len(w.slots) {
		w.cond.Wait()
	}
	return w.fail == nil
}

// park stores world i's outcome in its slot and merges every consecutive
// parked world from next on. Admission guarantees the slot is empty: every
// world that shares it is at least one window away. merge runs without the
// lock, so other workers keep parking meanwhile. Merges still run one at a
// time: the world being merged has left its slot while next still names
// it, so any other worker finds slot next empty and leaves the merging to
// this one, and taking the lock between merges orders each after the last.
func (w *window[R]) park(i int, p parked[R]) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return
	}
	w.slots[i%len(w.slots)] = p
	for w.fail == nil {
		j := w.next
		s := &w.slots[j%len(w.slots)]
		if !s.full {
			break
		}
		q := *s
		*s = parked[R]{}
		w.mu.Unlock()
		err := protectMerge(w.merge, j, q.seed, q.v, q.err)
		releaseAnalyzer(q.an)
		w.mu.Lock()
		w.fail = err
		w.next++
		w.cond.Broadcast()
	}
}

// err is the merge error that aborted the fleet, or nil.
func (w *window[R]) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.fail
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
