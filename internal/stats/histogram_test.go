package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistogramBasic(t *testing.T) {
	h := NewHistogram(0.5, 4) // bins [0,.5) [.5,1) [1,1.5) [1.5,2)
	h.AddAll([]float64{0.1, 0.2, 0.6, 1.9, 5.0})
	if h.Total() != 5 {
		t.Fatalf("total = %d", h.Total())
	}
	if h.Count(0) != 2 || h.Count(1) != 1 || h.Count(2) != 0 || h.Count(3) != 1 {
		t.Fatalf("counts = %d %d %d %d", h.Count(0), h.Count(1), h.Count(2), h.Count(3))
	}
	if h.Overflow != 1 {
		t.Fatalf("overflow = %d", h.Overflow)
	}
	pmf := h.PMF()
	if !approx(pmf[0], 0.4, 1e-12) {
		t.Fatalf("pmf[0] = %v", pmf[0])
	}
	if h.NumBins() != 4 {
		t.Fatalf("numbins = %d", h.NumBins())
	}
	if !approx(h.BinCenter(1), 0.75, 1e-12) {
		t.Fatalf("center = %v", h.BinCenter(1))
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 4)
	for _, v := range h.PMF() {
		if v != 0 {
			t.Fatal("nonzero pmf on empty histogram")
		}
	}
}

func TestHistogramPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 5) },
		func() { NewHistogram(1, 0) },
		func() { NewHistogram(1, 5).Add(-0.1) },
		func() { NewHistogram(1, 5).Add(math.NaN()) },
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

func TestExponentialPMFSumsToNearOne(t *testing.T) {
	h := NewHistogram(0.02, 100) // covers [0,2]
	pmf := h.ExponentialPMF(5)   // mean 0.2 ⇒ P(X<2) = 1-e^{-10} ≈ 0.99995
	var sum float64
	for _, p := range pmf {
		if p < 0 {
			t.Fatal("negative exponential mass")
		}
		sum += p
	}
	if sum < 0.9999 || sum > 1.0 {
		t.Fatalf("exponential pmf sum = %v", sum)
	}
	// Must be decreasing.
	for i := 1; i < len(pmf); i++ {
		if pmf[i] > pmf[i-1] {
			t.Fatal("exponential pmf not decreasing")
		}
	}
}

func TestExponentialPMFZeroRate(t *testing.T) {
	h := NewHistogram(0.1, 10)
	for _, p := range h.ExponentialPMF(0) {
		if p != 0 {
			t.Fatal("nonzero mass for zero rate")
		}
	}
}

func TestExponentialSampleMatchesPMF(t *testing.T) {
	// Draw exponential samples, bin them, compare to the analytic PMF.
	rng := rand.New(rand.NewSource(2))
	h := NewHistogram(0.05, 40)
	lambda := 2.0
	const n = 200000
	for i := 0; i < n; i++ {
		h.Add(rng.ExpFloat64() / lambda)
	}
	got := h.PMF()
	want := h.ExponentialPMF(lambda)
	for i := 0; i < 20; i++ { // compare the well-populated bins
		if want[i] < 1e-4 {
			continue
		}
		rel := math.Abs(got[i]-want[i]) / want[i]
		if rel > 0.08 {
			t.Fatalf("bin %d: got %v want %v (rel %v)", i, got[i], want[i], rel)
		}
	}
}

// Property: PMF sums to the in-range fraction.
func TestHistogramProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		h := NewHistogram(0.1, 64)
		inRange := 0
		for _, r := range raw {
			x := float64(r) / 8192.0 // [0, 8)
			h.Add(x)
			if x < 6.4 {
				inRange++
			}
		}
		if h.Total() != int64(len(raw)) {
			return false
		}
		var sum float64
		for _, p := range h.PMF() {
			sum += p
		}
		if len(raw) == 0 {
			return sum == 0
		}
		wantSum := float64(inRange) / float64(len(raw))
		return math.Abs(sum-wantSum) <= 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
