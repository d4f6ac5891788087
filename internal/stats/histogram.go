package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-bin-width histogram over [0, BinWidth·NumBins).
// Values below zero panic (loss intervals are nonnegative by construction);
// values at or beyond the top edge are counted in Overflow so the PDF over
// the plotted range stays honest.
type Histogram struct {
	BinWidth float64
	counts   []int64
	total    int64
	Overflow int64
}

// NewHistogram builds a histogram with n bins of width w. The paper's PDFs
// use w = 0.02 RTT over [0, 2 RTT], i.e. n = 100.
func NewHistogram(w float64, n int) *Histogram {
	if w <= 0 || n <= 0 {
		panic("stats: histogram needs positive bin width and count")
	}
	return &Histogram{BinWidth: w, counts: make([]int64, n)}
}

// Add counts one observation.
func (h *Histogram) Add(x float64) {
	if x < 0 || math.IsNaN(x) {
		panic(fmt.Sprintf("stats: histogram add %v", x))
	}
	idx := int(x / h.BinWidth)
	if idx >= len(h.counts) {
		h.Overflow++
	} else {
		h.counts[idx]++
	}
	h.total++
}

// AddAll counts a batch of observations.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Reset forgets every observation while keeping the bin layout and the
// counts array, so one histogram can be reused across replications without
// reallocating.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total = 0
	h.Overflow = 0
}

// Clone returns an independent deep copy, for callers that retain a
// histogram beyond the lifetime of the scratch arena that filled it.
func (h *Histogram) Clone() *Histogram {
	c := *h
	c.counts = append([]int64(nil), h.counts...)
	return &c
}

// NumBins reports the number of in-range bins.
func (h *Histogram) NumBins() int { return len(h.counts) }

// Total reports all observations including overflow.
func (h *Histogram) Total() int64 { return h.total }

// Count returns the raw count of bin i.
func (h *Histogram) Count(i int) int64 { return h.counts[i] }

// BinCenter returns the midpoint of bin i, for plotting.
func (h *Histogram) BinCenter(i int) float64 {
	return (float64(i) + 0.5) * h.BinWidth
}

// AppendPMF appends the per-bin probability mass (count/total) to dst and
// returns the extended slice — the allocation-free form the streaming
// analysis path reuses across replications (dst[:0] with retained
// capacity). Empty histogram appends all zeros.
func (h *Histogram) AppendPMF(dst []float64) []float64 {
	for _, c := range h.counts {
		if h.total == 0 {
			dst = append(dst, 0)
		} else {
			dst = append(dst, float64(c)/float64(h.total))
		}
	}
	return dst
}

// PMF returns the per-bin probability mass (count/total), the quantity the
// paper plots on its log-scale Y axes. Empty histogram yields all zeros.
func (h *Histogram) PMF() []float64 {
	return h.AppendPMF(make([]float64, 0, len(h.counts)))
}

// AppendExponentialPMF appends the matched-rate exponential reference mass
// of each bin to dst (zeros when lambda is non-positive).
func (h *Histogram) AppendExponentialPMF(dst []float64, lambda float64) []float64 {
	for i := range h.counts {
		if lambda <= 0 {
			dst = append(dst, 0)
			continue
		}
		l := float64(i) * h.BinWidth
		r := l + h.BinWidth
		dst = append(dst, math.Exp(-lambda*l)-math.Exp(-lambda*r))
	}
	return dst
}

// ExponentialPMF returns the per-bin probability mass of an exponential
// (Poisson inter-arrival) distribution with the given rate λ (events per
// unit), over the same bins as h: P(bin i) = e^{-λ·l} − e^{-λ·r}. This is
// the paper's "Poisson process with the same average arrival rate" overlay.
func (h *Histogram) ExponentialPMF(lambda float64) []float64 {
	return h.AppendExponentialPMF(make([]float64, 0, len(h.counts)), lambda)
}
