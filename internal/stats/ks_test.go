package stats

import (
	"math/rand"
	"testing"
)

func TestKSExponentialAcceptsExponentialSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 3
	}
	d := KSExponential(xs)
	if d > KSCriticalValue(len(xs), 0.05) {
		t.Fatalf("true exponential rejected: D=%v crit=%v",
			d, KSCriticalValue(len(xs), 0.05))
	}
}

func TestKSExponentialRejectsClusteredSample(t *testing.T) {
	// Bimodal: 90% tiny intervals, 10% huge — a bursty loss process.
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 2000)
	for i := range xs {
		if rng.Float64() < 0.9 {
			xs[i] = 0.001
		} else {
			xs[i] = 10
		}
	}
	if KSExponential(xs) <= KSCriticalValue(len(xs), 0.05) {
		t.Fatalf("clustered sample accepted as exponential: D=%v", KSExponential(xs))
	}
	if KSExponential(xs) < 0.3 {
		t.Fatalf("D=%v too small for 90%% clustering", KSExponential(xs))
	}
}

func TestKSExponentialRejectsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = rng.Float64() // uniform[0,1) is not exponential
	}
	if KSExponential(xs) <= KSCriticalValue(len(xs), 0.05) {
		t.Fatal("uniform accepted as exponential")
	}
}

func TestKSEdgeCases(t *testing.T) {
	if KSExponential(nil) != 0 {
		t.Fatal("empty sample D != 0")
	}
	if KSExponential([]float64{0, 0, 0}) != 1 {
		t.Fatal("zero-mean sample should give D=1")
	}
	if KSCriticalValue(0, 0.05) != 1 {
		t.Fatal("n=0 critical value")
	}
	if KSCriticalValue(100, 0.01) <= KSCriticalValue(100, 0.05) {
		t.Fatal("stricter alpha must have larger critical value")
	}
	// Input must not be reordered.
	xs := []float64{3, 1, 2}
	KSExponential(xs)
	if xs[0] != 3 {
		t.Fatal("KS mutated input")
	}
}
