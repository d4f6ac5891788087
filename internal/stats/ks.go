package stats

import (
	"math"
	"sort"
)

// KSExponential computes the one-sample Kolmogorov–Smirnov statistic of
// xs against the exponential distribution with the sample's own mean:
// D = sup |F_n(x) − (1 − e^{−x/mean})|. It is the paper's future-work
// "more rigorous analysis" of whether a loss process is Poisson: a
// Poisson process's intervals give small D (≈ 1/√n scale), a clustered
// process gives D near its cluster mass.
func KSExponential(xs []float64) float64 {
	d, _ := KSExponentialInto(xs, nil)
	return d
}

// KSExponentialInto is KSExponential with a caller-provided scratch buffer
// for the sorted copy. It returns the statistic and the (possibly grown)
// buffer, so the streaming analysis path can reuse one buffer across
// replications instead of allocating a sorted copy per test.
func KSExponentialInto(xs, scratch []float64) (float64, []float64) {
	if len(xs) == 0 {
		return 0, scratch
	}
	mean := Mean(xs)
	if mean <= 0 {
		return 1, scratch
	}
	s := append(scratch[:0], xs...)
	sort.Float64s(s)
	n := float64(len(s))
	var d float64
	for i, x := range s {
		f := 1 - math.Exp(-x/mean)
		// Compare against the empirical CDF on both sides of the step.
		lo := float64(i) / n
		hi := float64(i+1) / n
		if diff := math.Abs(f - lo); diff > d {
			d = diff
		}
		if diff := math.Abs(f - hi); diff > d {
			d = diff
		}
	}
	return d, s
}

// KSCriticalValue returns the approximate critical D for rejecting the
// exponential hypothesis at significance alpha (0.05 or 0.01) with n
// samples, using the asymptotic Kolmogorov approximation
// c(α)/√n with c(0.05) = 1.358, c(0.01) = 1.628. For other alphas the
// 0.05 constant is used.
func KSCriticalValue(n int, alpha float64) float64 {
	if n <= 0 {
		return 1
	}
	c := 1.358
	if alpha <= 0.01 {
		c = 1.628
	}
	return c / math.Sqrt(float64(n))
}
