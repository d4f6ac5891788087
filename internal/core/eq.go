// Package core orchestrates the paper's experiments. Each figure and table
// of the evaluation has a runner here that builds the scenario from the
// substrate packages, executes it deterministically from a single seed,
// and returns the series the paper plots. The analytic loss-visibility
// model of Equations 1 and 2 lives here too, together with its empirical
// validation.
package core

import (
	"math/rand"

	"repro/internal/sim"
)

// LRateBased is the paper's Equation 1: the expected number of rate-based
// flows that observe a loss event of M dropped packets when N flows share
// the bottleneck — with perfectly interleaved (evenly spaced) packets,
// every distinct flow in the burst window sees a drop.
func LRateBased(m, n int) int {
	if m < n {
		return m
	}
	return n
}

// LWinBased is the paper's Equation 2: the expected number of window-based
// flows that observe the same event when each flow's K packets per RTT
// arrive as one contiguous clump — the burst of M drops covers only
// ⌈M/K⌉ clumps.
func LWinBased(m, k int) float64 {
	if k <= 0 {
		return 1
	}
	l := float64(m) / float64(k)
	if l < 1 {
		return 1
	}
	return l
}

// VisibilityResult is one row of the Eq. 1/2 validation: analytic
// prediction vs Monte Carlo measurement of how many flows detect a drop
// burst.
type VisibilityResult struct {
	M, N, K int // burst size, flows, packets per flow per RTT

	AnalyticRate float64 // eq. 1
	AnalyticWin  float64 // eq. 2

	EmpiricalRate float64 // measured, interleaved arrivals
	EmpiricalWin  float64 // measured, clumped arrivals
}

// visScratch holds the Monte Carlo's reusable buffers: the two
// arrival-order owner arrays (pure functions of N and K, so every burst
// size in a table sweep shares them) and an epoch-stamped distinct-flow
// counter that replaces the per-trial set allocation — the counting is
// identical, just O(burst) with no map.
type visScratch struct {
	n, k        int
	interleaved []int // owner[i] = flow owning arrival i, round-robin order
	clumped     []int // owner[i] under contiguous per-flow windows
	stamp       []int // stamp[flow] == epoch ⇔ flow counted this trial
	epoch       int
}

// prepare sizes the buffers for an (n, k) grid, rebuilding the owner
// arrays only when the shape actually changed.
func (s *visScratch) prepare(n, k int) {
	if s.n == n && s.k == k {
		return
	}
	s.n, s.k = n, k
	total := n * k
	if cap(s.interleaved) < total {
		s.interleaved = make([]int, total)
		s.clumped = make([]int, total)
	} else {
		s.interleaved = s.interleaved[:total]
		s.clumped = s.clumped[:total]
	}
	for i := 0; i < total; i++ {
		s.interleaved[i] = i % n
		s.clumped[i] = i / k
	}
	if cap(s.stamp) < n {
		s.stamp = make([]int, n)
		s.epoch = 0
	} else {
		s.stamp = s.stamp[:n]
	}
}

// countDistinct counts the flows owning at least one of the m arrivals
// starting at offset (wrapping), using the epoch stamp instead of a set.
func (s *visScratch) countDistinct(owner []int, offset, m int) int {
	s.epoch++
	total := len(owner)
	distinct := 0
	for i := offset; i < offset+m; i++ {
		f := owner[i%total]
		if s.stamp[f] != s.epoch {
			s.stamp[f] = s.epoch
			distinct++
		}
	}
	return distinct
}

func simulateVisibility(s *visScratch, m, n, k, trials int, rng *rand.Rand) VisibilityResult {
	if m <= 0 || n <= 0 || k <= 0 || trials <= 0 || rng == nil {
		panic("core: visibility simulation requires positive parameters and rng")
	}
	res := VisibilityResult{
		M: m, N: n, K: k,
		AnalyticRate: float64(LRateBased(m, n)),
		AnalyticWin:  LWinBased(m, k),
	}
	total := n * k
	if m > total {
		m = total
	}
	s.prepare(n, k)

	var sumRate, sumWin float64
	for t := 0; t < trials; t++ {
		off := rng.Intn(total)
		sumRate += float64(s.countDistinct(s.interleaved, off, m))
		sumWin += float64(s.countDistinct(s.clumped, off, m))
	}
	res.EmpiricalRate = sumRate / float64(trials)
	res.EmpiricalWin = sumWin / float64(trials)
	return res
}

// VisibilityTable builds the Eq. 1/2 validation table over a sweep of
// burst sizes, for fixed N and K.
func VisibilityTable(n, k int, bursts []int, trials int, seed int64) []VisibilityResult {
	rng := sim.NewRand(seed)
	out := make([]VisibilityResult, 0, len(bursts))
	s := new(visScratch)
	for _, m := range bursts {
		out = append(out, simulateVisibility(s, m, n, k, trials, rng))
	}
	return out
}
