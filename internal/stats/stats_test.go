package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Min != 1 || s.Max != 5 || s.Median != 3 {
		t.Fatalf("summary = %+v", s)
	}
	if !approx(s.Var, 2.5, 1e-12) {
		t.Fatalf("var = %v", s.Var)
	}
	if !approx(s.Std, math.Sqrt(2.5), 1e-12) {
		t.Fatalf("std = %v", s.Std)
	}
}

func TestSummarizeEmptyAndSingle(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
	s := Summarize([]float64{7})
	if s.N != 1 || s.Mean != 7 || s.Var != 0 || s.Median != 7 {
		t.Fatalf("single summary = %+v", s)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if q := Quantile(xs, 0); q != 1 {
		t.Fatalf("q0 = %v", q)
	}
	if q := Quantile(xs, 1); q != 4 {
		t.Fatalf("q1 = %v", q)
	}
	if q := Quantile(xs, 0.5); !approx(q, 2.5, 1e-12) {
		t.Fatalf("median = %v", q)
	}
	// Input must not be reordered.
	if xs[0] != 4 {
		t.Fatal("quantile mutated input")
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, f := range []func(){
		func() { Quantile(nil, 0.5) },
		func() { Quantile([]float64{1}, -0.1) },
		func() { Quantile([]float64{1}, 1.1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty != 0")
	}
	if Mean([]float64{2, 4}) != 3 {
		t.Fatal("mean wrong")
	}
}

// windowCounts bins nondecreasing event times into windows of the given
// width, from the window of time 0 to the one holding the last event.
func windowCounts(times []float64, window float64) []float64 {
	counts := make([]float64, int(times[len(times)-1]/window)+1)
	for _, t := range times {
		counts[int(t/window)]++
	}
	return counts
}

func TestIndexOfDispersionPoissonNearOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var times []float64
	tt := 0.0
	for i := 0; i < 50000; i++ {
		tt += rng.ExpFloat64()
		times = append(times, tt)
	}
	iod := IndexOfDispersion(windowCounts(times, 10))
	if iod < 0.8 || iod > 1.2 {
		t.Fatalf("Poisson IoD = %v, want ≈1", iod)
	}
}

func TestIndexOfDispersionBurstyLarge(t *testing.T) {
	// Bursts of 100 events at integer times: highly over-dispersed.
	var times []float64
	for b := 0; b < 100; b++ {
		for i := 0; i < 100; i++ {
			times = append(times, float64(b*100)+float64(i)*1e-6)
		}
	}
	iod := IndexOfDispersion(windowCounts(times, 10))
	if iod < 5 {
		t.Fatalf("bursty IoD = %v, want ≫1", iod)
	}
}

func TestIndexOfDispersionDegenerate(t *testing.T) {
	if IndexOfDispersion(nil) != 0 {
		t.Fatal("empty IoD != 0")
	}
	if IndexOfDispersion([]float64{0, 0, 0}) != 0 {
		t.Fatal("IoD of empty windows != 0")
	}
	// Equal counts have no variance.
	if got := IndexOfDispersion([]float64{3, 3, 3}); got != 0 {
		t.Fatalf("IoD of equal counts = %v, want 0", got)
	}
}

// Property: quantile is monotone in q and bounded by min/max.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, a, b float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		qa := math.Abs(math.Mod(a, 1))
		qb := math.Abs(math.Mod(b, 1))
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		s := Summarize(xs)
		return va <= vb+1e-9 && va >= s.Min-1e-9 && vb <= s.Max+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
