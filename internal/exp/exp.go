// Package exp is the deterministic parallel experiment runner. Every
// multi-replication sweep in the repository — figure replications across
// seeds, the PlanetLab path campaign, the Figure 8 latency grid, the
// back-to-back artifacts of cmd/paperexp — fans out through Sweep.
//
// The contract that makes parallelism safe and reproducible:
//
//   - One simulated world is confined to one goroutine. A sim.Scheduler,
//     every *rand.Rand feeding it, and every component attached to it must
//     be created inside the run function and never shared across runs
//     (see the sim package docs).
//   - Run i's seed is sim.SubSeed(Options.Seed, i), a pure function of
//     the base seed and the run index. Results therefore do not depend on
//     the worker count or on completion order: a sweep with 1 worker and
//     a sweep with N workers produce identical Result slices.
//   - Results come back ordered by run index, with per-run errors (and
//     panics, converted to errors) captured rather than aborting the
//     whole sweep.
package exp

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/sim"
)

// Options configures a sweep.
type Options struct {
	// Seed is the base seed. Run i receives sim.SubSeed(Seed, i) so each
	// replication draws from an independent, index-stable stream.
	Seed int64
	// Workers bounds the number of concurrent runs. 0 means
	// runtime.GOMAXPROCS(0); 1 recovers fully sequential execution.
	Workers int
}

func (o Options) workers(jobs int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > jobs {
		w = jobs
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run is the per-run input handed to a sweep function.
type Run[C any] struct {
	// Index is the run's position in the config slice.
	Index int
	// Seed is sim.SubSeed(Options.Seed, Index). Run functions that need
	// more than one stream should derive children with further SubSeed
	// calls rather than sharing one *rand.Rand.
	Seed int64
	// Config is the run's experiment configuration.
	Config C
}

// Result is one run's outcome, reported in input order.
type Result[R any] struct {
	Index int
	Seed  int64
	Value R
	Err   error
}

// Sweep executes fn once per config, fanning the runs out across a worker
// pool. It returns one Result per config, in config order, regardless of
// which worker ran what or in which order runs finished. A run that
// returns an error or panics records the failure in its Result slot; the
// other runs proceed.
//
// Each worker goroutine owns one Arena, taken when the worker starts and
// handed to every run that worker executes. Replications that route their
// scheduler, packet pool and analysis scratch through the arena reuse
// those allocations across the whole sweep instead of rebuilding them per
// run; a run that needs none of it ignores the argument (arenas are lazy,
// so that costs nothing).
//
// Every arena accessor resets the state it hands out, so a run on a warm
// arena is bit-identical to a run on a cold one and results stay invariant
// under the worker count. The one rule: values retained in a Result must
// not point into the arena (see Arena).
func Sweep[C, R any](opts Options, configs []C, fn func(Run[C], *Arena) (R, error)) []Result[R] {
	results := make([]Result[R], len(configs))
	run := func(i int, seed int64, a *Arena) (R, error) {
		return fn(Run[C]{Index: i, Seed: seed, Config: configs[i]}, a)
	}
	forEach(len(configs), opts.workers(len(configs)), func() bool { return false }, func(i int, a *Arena) {
		seed := sim.SubSeed(opts.Seed, int64(i))
		v, err := protect(run, i, seed, a)
		results[i] = Result[R]{Index: i, Seed: seed, Value: v, Err: err}
	})
	return results
}

// forEach is the one worker loop under Sweep and Fleet: it calls do(i, a) for
// i = 0 … n-1 on `workers` goroutines, each owning one pooled Arena for as
// long as it runs, and returns when every call has. Indices are issued in
// order; stop is polled before each is issued and again before it starts, and
// once it reports true the rest are skipped. One worker runs inline on the
// caller's goroutine — same order, same callbacks, no goroutines.
func forEach(n, workers int, stop func() bool, do func(i int, a *Arena)) {
	if workers == 1 {
		a := getArena()
		defer putArena(a)
		for i := 0; i < n && !stop(); i++ {
			do(i, a)
		}
		return
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a := getArena()
			defer putArena(a)
			for i := range jobs {
				if !stop() { // else drain the queue so the feeder never blocks
					do(i, a)
				}
			}
		}()
	}
	for i := 0; i < n && !stop(); i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
}

// arenaPool recycles worker arenas across sweeps. A sweep's arenas carry
// warm capacity that is expensive to regrow — event freelists, wheel-slot
// and queue-store slices, packet populations, cached compiled worlds — and
// every one of those is rewound by its accessor (Scheduler resets, worlds
// Reset via topo.NetworkIn), so a pooled arena is observationally
// identical to a fresh one while skipping the regrowth. Back-to-back
// sweeps (replication campaigns, benchmark iterations, paperexp artifact
// batches) therefore pay world construction once per process, not once
// per sweep. Under memory pressure the pool sheds arenas like any
// sync.Pool.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

func getArena() *Arena  { return arenaPool.Get().(*Arena) }
func putArena(a *Arena) { arenaPool.Put(a) }

// protect runs one replication or fleet world, converting a panic into that
// run's error so one bad run cannot take down a whole sweep or fleet.
func protect[R any](fn func(int, int64, *Arena) (R, error), i int, seed int64, a *Arena) (v R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: run %d (seed %d) panicked: %v", i, seed, p)
		}
	}()
	return fn(i, seed, a)
}

// Replicate runs fn n times — the "same experiment, n independent seeds"
// special case of Sweep.
func Replicate[R any](opts Options, n int, fn func(index int, seed int64, a *Arena) (R, error)) []Result[R] {
	return Sweep(opts, make([]struct{}, n), func(r Run[struct{}], a *Arena) (R, error) {
		return fn(r.Index, r.Seed, a)
	})
}

// Values extracts the result values, failing on the first captured error.
func Values[R any](results []Result[R]) ([]R, error) {
	if err := FirstErr(results); err != nil {
		return nil, err
	}
	out := make([]R, len(results))
	for i, r := range results {
		out[i] = r.Value
	}
	return out, nil
}

// FirstErr returns the lowest-index captured error, or nil.
func FirstErr[R any](results []Result[R]) error {
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("exp: run %d: %w", r.Index, r.Err)
		}
	}
	return nil
}
