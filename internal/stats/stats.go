// Package stats provides the statistical machinery the paper's analysis
// uses: fixed-bin histograms/PDFs (bin size 0.02 RTT in the paper),
// Poisson/exponential references with matched rate, summary moments,
// quantiles, and the index of dispersion used to quantify burstiness.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds the standard moments of a sample.
type Summary struct {
	N      int
	Mean   float64
	Var    float64 // unbiased sample variance
	Std    float64
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes summary statistics. It returns a zero Summary for an
// empty sample.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{N: len(xs), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Var = ss / float64(len(xs)-1)
		s.Std = math.Sqrt(s.Var)
	}
	s.Median = Quantile(xs, 0.5)
	return s
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It copies xs, so the input is not
// reordered. Panics on empty input or q outside [0,1].
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty sample")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v outside [0,1]", q))
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Mean is a convenience for Summarize(xs).Mean on hot paths.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// IndexOfDispersion returns Var/Mean of event counts in fixed windows — 1
// for a Poisson process, ≫1 for a bursty process. It is the paper's
// "more rigorous analysis" direction and our quantitative burstiness
// check. times must be nondecreasing; window > 0.
func IndexOfDispersion(times []float64, window float64) float64 {
	if len(times) == 0 || window <= 0 {
		return 0
	}
	end := times[len(times)-1]
	nwin := int(end/window) + 1
	counts := make([]float64, nwin)
	for _, t := range times {
		idx := int(t / window)
		if idx >= nwin {
			idx = nwin - 1
		}
		counts[idx]++
	}
	mean := Mean(counts)
	if mean == 0 {
		return 0
	}
	// Population variance is conventional for IoD.
	var ss float64
	for _, c := range counts {
		d := c - mean
		ss += d * d
	}
	return (ss / float64(len(counts))) / mean
}

// DispersionCounter is the streaming form of IndexOfDispersion: it counts
// events into fixed windows as they arrive (times must be nondecreasing,
// which a single scheduler guarantees) and folds each closed window's
// count into running Σc and Σc² instead of materializing a counts slice.
// Value matches the batch IndexOfDispersion of the same event times up to
// floating-point associativity. The zero value is unusable; call Reset.
type DispersionCounter struct {
	window   float64
	n        int64 // events observed
	curIdx   int64 // window index of the open window
	curCount int64 // events in the open window
	sumSq    float64
	lastT    float64
	started  bool
}

// Reset prepares the counter for a new run with the given window width.
func (c *DispersionCounter) Reset(window float64) {
	*c = DispersionCounter{window: window}
}

// Observe counts one event at time t (same units as the window).
func (c *DispersionCounter) Observe(t float64) {
	if c.window <= 0 {
		return
	}
	idx := int64(t / c.window)
	switch {
	case !c.started:
		c.started = true
		c.curIdx = idx
		c.curCount = 1
	case idx == c.curIdx:
		c.curCount++
	default:
		// Windows skipped between curIdx and idx are empty: they
		// contribute 0 to Σc² and only enter through the window count.
		c.sumSq += float64(c.curCount) * float64(c.curCount)
		c.curIdx = idx
		c.curCount = 1
	}
	c.n++
	c.lastT = t
}

// Value returns the index of dispersion of the counts seen so far,
// including every empty window up to the last observed event — the same
// population-variance convention as IndexOfDispersion.
func (c *DispersionCounter) Value() float64 {
	if c.n == 0 || c.window <= 0 {
		return 0
	}
	nwin := int64(c.lastT/c.window) + 1
	sumSq := c.sumSq + float64(c.curCount)*float64(c.curCount)
	mean := float64(c.n) / float64(nwin)
	if mean == 0 {
		return 0
	}
	popVar := sumSq/float64(nwin) - mean*mean
	if popVar < 0 {
		popVar = 0 // floating-point guard; variance is nonnegative
	}
	return popVar / mean
}

// Autocorrelation returns the lag-k sample autocorrelation of xs.
func Autocorrelation(xs []float64, k int) float64 {
	if k < 0 || k >= len(xs) {
		return 0
	}
	m := Mean(xs)
	var num, den float64
	for i := 0; i < len(xs)-k; i++ {
		num += (xs[i] - m) * (xs[i+k] - m)
	}
	for _, x := range xs {
		den += (x - m) * (x - m)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
