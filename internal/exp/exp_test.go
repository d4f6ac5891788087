package exp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/sim"
)

// stochasticRun emulates a seeded experiment: the value depends only on
// the run's seed and config, via its own private rng.
func stochasticRun(r Run[int], _ *Arena) (float64, error) {
	rng := rand.New(rand.NewSource(r.Seed))
	sum := float64(r.Config)
	for i := 0; i < 1000; i++ {
		sum += rng.Float64()
	}
	return sum, nil
}

func TestSweepWorkerInvariance(t *testing.T) {
	t.Parallel()
	configs := make([]int, 37)
	for i := range configs {
		configs[i] = i * 10
	}
	base := Sweep(Options{Seed: 42, Workers: 1}, configs, stochasticRun)
	for _, w := range []int{2, 3, 8, 0} {
		got := Sweep(Options{Seed: 42, Workers: w}, configs, stochasticRun)
		if !reflect.DeepEqual(base, got) {
			t.Fatalf("workers=%d diverged from sequential run", w)
		}
	}
}

// TestSweepGOMAXPROCSInvariance pins the default worker count's behaviour
// across processor configurations: Workers=0 means GOMAXPROCS, and CI runs
// this package under `go test -cpu 1,2,4`, so the same assertion executes
// with three different default pool sizes. The expected values are
// computed from the SubSeed contract directly — not from another sweep —
// so a scheduling-dependent result cannot accidentally agree with itself.
func TestSweepGOMAXPROCSInvariance(t *testing.T) {
	t.Parallel()
	const n = 53
	res := Replicate(Options{Seed: 1234, Workers: 0}, n, func(i int, seed int64, _ *Arena) (float64, error) {
		rng := rand.New(rand.NewSource(seed))
		return float64(i) + rng.Float64(), nil
	})
	if len(res) != n {
		t.Fatalf("got %d results", len(res))
	}
	for i, r := range res {
		seed := sim.SubSeed(1234, int64(i))
		want := float64(i) + rand.New(rand.NewSource(seed)).Float64()
		if r.Err != nil || r.Value != want || r.Seed != seed {
			t.Fatalf("run %d (GOMAXPROCS=%d): got (%v, %v, seed %d), want (%v, seed %d)",
				i, runtime.GOMAXPROCS(0), r.Value, r.Err, r.Seed, want, seed)
		}
	}
}

func TestSweepOrderAndSeeds(t *testing.T) {
	t.Parallel()
	configs := []int{5, 6, 7}
	res := Sweep(Options{Seed: 9, Workers: 2}, configs, func(r Run[int], _ *Arena) (int, error) {
		return r.Config * 2, nil
	})
	for i, r := range res {
		if r.Index != i {
			t.Fatalf("result %d has index %d", i, r.Index)
		}
		if r.Seed != sim.SubSeed(9, int64(i)) {
			t.Fatalf("result %d seed %d, want SubSeed(9,%d)=%d", i, r.Seed, i, sim.SubSeed(9, int64(i)))
		}
		if r.Value != configs[i]*2 {
			t.Fatalf("result %d value %d", i, r.Value)
		}
	}
}

func TestSweepRunsConcurrently(t *testing.T) {
	t.Parallel()
	// Both runs must be in flight at once for either to finish.
	var wg sync.WaitGroup
	wg.Add(2)
	res := Sweep(Options{Workers: 2}, []int{0, 1}, func(r Run[int], _ *Arena) (int, error) {
		wg.Done()
		wg.Wait()
		return r.Index, nil
	})
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
}

func TestSweepErrorCapture(t *testing.T) {
	t.Parallel()
	boom := errors.New("boom")
	res := Sweep(Options{Workers: 4}, []int{0, 1, 2, 3}, func(r Run[int], _ *Arena) (int, error) {
		if r.Index == 2 {
			return 0, boom
		}
		return r.Index, nil
	})
	if res[2].Err == nil || !errors.Is(res[2].Err, boom) {
		t.Fatalf("error not captured: %+v", res[2])
	}
	for _, i := range []int{0, 1, 3} {
		if res[i].Err != nil || res[i].Value != i {
			t.Fatalf("healthy run %d corrupted: %+v", i, res[i])
		}
	}
	if err := FirstErr(res); !errors.Is(err, boom) || !strings.Contains(err.Error(), "run 2") {
		t.Fatalf("FirstErr = %v", err)
	}
	if _, err := Values(res); err == nil {
		t.Fatal("Values ignored the error")
	}
}

func TestSweepPanicCapture(t *testing.T) {
	t.Parallel()
	res := Sweep(Options{Seed: 3, Workers: 2}, []int{0, 1}, func(r Run[int], _ *Arena) (int, error) {
		if r.Index == 1 {
			panic("kaboom")
		}
		return 7, nil
	})
	if res[0].Err != nil || res[0].Value != 7 {
		t.Fatalf("healthy run: %+v", res[0])
	}
	if res[1].Err == nil || !strings.Contains(res[1].Err.Error(), "kaboom") {
		t.Fatalf("panic not captured: %+v", res[1])
	}
}

// A panic's error must name the offending run — its index and its seed —
// so a failed replication in a thousand-run campaign is reproducible
// without bisecting.
func TestSweepPanicNamesRunIndexAndSeed(t *testing.T) {
	t.Parallel()
	const bad = 3
	res := Sweep(Options{Seed: 99, Workers: 4}, make([]struct{}, 6), func(r Run[struct{}], _ *Arena) (int, error) {
		if r.Index == bad {
			panic("replication exploded")
		}
		return r.Index, nil
	})
	err := res[bad].Err
	if err == nil {
		t.Fatal("panic not captured")
	}
	wantSeed := fmt.Sprintf("seed %d", sim.SubSeed(99, bad))
	for _, want := range []string{fmt.Sprintf("run %d", bad), wantSeed, "replication exploded"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("panic error %q does not name %q", err, want)
		}
	}
	// FirstErr keeps the attribution when the sweep is unwrapped at the
	// call site.
	if ferr := FirstErr(res); ferr == nil || !strings.Contains(ferr.Error(), wantSeed) {
		t.Fatalf("FirstErr lost the seed attribution: %v", ferr)
	}
	for i, r := range res {
		if i != bad && (r.Err != nil || r.Value != i) {
			t.Fatalf("healthy run %d corrupted: %+v", i, r)
		}
	}
}

func TestSweepEmptyAndValues(t *testing.T) {
	t.Parallel()
	res := Sweep(Options{}, nil, stochasticRun)
	if len(res) != 0 {
		t.Fatal("empty sweep produced results")
	}
	vals, err := Values(Sweep(Options{Workers: 1}, []int{1, 2}, func(r Run[int], _ *Arena) (int, error) {
		return r.Config + 1, nil
	}))
	if err != nil || !reflect.DeepEqual(vals, []int{2, 3}) {
		t.Fatalf("Values = %v, %v", vals, err)
	}
}

func TestReplicate(t *testing.T) {
	t.Parallel()
	seq := Replicate(Options{Seed: 11, Workers: 1}, 9, func(i int, seed int64, _ *Arena) (int64, error) {
		return seed ^ int64(i), nil
	})
	par := Replicate(Options{Seed: 11, Workers: 4}, 9, func(i int, seed int64, _ *Arena) (int64, error) {
		return seed ^ int64(i), nil
	})
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("replicate not worker-invariant")
	}
	if seq[4].Value != sim.SubSeed(11, 4)^4 {
		t.Fatalf("replication 4 = %d", seq[4].Value)
	}
}

func TestEstimateOf(t *testing.T) {
	t.Parallel()
	if e := EstimateOf(nil); e.N != 0 || e.Mean != 0 || e.CI95 != 0 {
		t.Fatalf("empty estimate: %+v", e)
	}
	if e := EstimateOf([]float64{4}); e.Mean != 4 || e.CI95 != 0 || e.N != 1 {
		t.Fatalf("singleton estimate: %+v", e)
	}
	// {1,2,3}: mean 2, sd 1, CI95 = t(2)·1/√3 = 4.303/1.732... ≈ 2.484.
	e := EstimateOf([]float64{1, 2, 3})
	if e.Mean != 2 || math.Abs(e.CI95-2.4843) > 1e-3 {
		t.Fatalf("estimate of {1,2,3}: %+v", e)
	}
	if math.Abs(e.Lo()-(2-2.4843)) > 1e-3 || math.Abs(e.Hi()-(2+2.4843)) > 1e-3 {
		t.Fatalf("interval bounds: [%v, %v]", e.Lo(), e.Hi())
	}
	// Large samples fall back to the normal critical value.
	big := make([]float64, 64)
	for i := range big {
		big[i] = float64(i % 2)
	}
	eb := EstimateOf(big)
	sd := math.Sqrt(float64(len(big)) / float64(len(big)-1) * 0.25)
	want := 1.96 * sd / math.Sqrt(float64(len(big)))
	if math.Abs(eb.CI95-want) > 1e-9 {
		t.Fatalf("large-sample CI %v, want %v", eb.CI95, want)
	}
}

func TestSummarizeReports(t *testing.T) {
	t.Parallel()
	mk := func(n int, f001, cov float64, rejects bool) *analysis.Report {
		return &analysis.Report{
			N: n, Lambda: 1, FracBelow001: f001, FracBelow025: f001 + 0.1,
			FracBelow1: f001 + 0.2, CoV: cov, KSDistance: 0.3, RejectsPoisson: rejects,
		}
	}
	s := SummarizeReports([]*analysis.Report{
		mk(100, 0.9, 5, true), nil, mk(200, 0.8, 7, false),
	})
	if s.Replications != 2 {
		t.Fatalf("replications = %d", s.Replications)
	}
	if s.Losses.Mean != 150 || math.Abs(s.FracBelow001.Mean-0.85) > 1e-9 || s.CoV.Mean != 6 {
		t.Fatalf("summary means: %+v", s)
	}
	if s.RejectFrac != 0.5 {
		t.Fatalf("reject frac = %v", s.RejectFrac)
	}
	if s.FracBelow001.CI95 <= 0 {
		t.Fatal("CI collapsed")
	}
	if z := SummarizeReports(nil); z.Replications != 0 || z.RejectFrac != 0 {
		t.Fatalf("empty summary: %+v", z)
	}
}

func TestSweepLoadBalancing(t *testing.T) {
	t.Parallel()
	// More configs than workers: every config must still run exactly once.
	n := 101
	counts := make([]int32, n)
	var mu sync.Mutex
	res := Sweep(Options{Workers: 7}, make([]struct{}, n), func(r Run[struct{}], _ *Arena) (int, error) {
		mu.Lock()
		counts[r.Index]++
		mu.Unlock()
		return r.Index, nil
	})
	if err := FirstErr(res); err != nil {
		t.Fatal(err)
	}
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("config %d ran %d times", i, c)
		}
	}
}

func ExampleSweep() {
	// Three replications of a seeded "experiment", two workers. The output
	// is identical for any worker count.
	res := Replicate(Options{Seed: 1, Workers: 2}, 3, func(i int, seed int64, _ *Arena) (float64, error) {
		rng := rand.New(rand.NewSource(seed))
		return rng.Float64(), nil
	})
	for _, r := range res {
		fmt.Printf("run %d: %.3f\n", r.Index, r.Value)
	}
	// Output:
	// run 0: 0.721
	// run 1: 0.212
	// run 2: 0.978
}
