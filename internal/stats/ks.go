package stats

import (
	"math"
	"slices"
)

// KSExponential computes the one-sample Kolmogorov–Smirnov statistic of
// xs against the exponential distribution with the sample's own mean:
// D = sup |F_n(x) − (1 − e^{−x/mean})|. It is the paper's future-work
// "more rigorous analysis" of whether a loss process is Poisson: a
// Poisson process's intervals give small D (≈ 1/√n scale), a clustered
// process gives D near its cluster mass.
func KSExponential(xs []float64) float64 {
	var s KSScratch
	return KSExponentialInto(xs, &s)
}

// KSScratch is KSExponentialInto's working memory: the buckets and the
// copy of the elements it sorts. The streaming analysis path keeps one per
// tally, so a warmed analyzer computes D without allocating.
type KSScratch struct {
	buckets []ksBucket
	sorted  []float64
}

// ksBucket is one bucket of the sample: its size, its first rank in the
// sorted sample, and its least and greatest element. Once the bounds are
// known, min and max hold those elements' CDF values and count holds the
// bucket's write cursor into the sorted copy, or −1 if it is not scanned.
type ksBucket struct {
	count, lo int
	min, max  float64
}

const (
	// ksPerBucket is the mean bucket occupancy: the sample is scattered
	// into len(xs)/ksPerBucket + 1 buckets.
	ksPerBucket = 8
	// ksSpan is the range of x/mean the buckets cover with equal widths;
	// everything above it shares the last bucket.
	ksSpan = 8
	// ksSlack covers the rounding of a bucket's bound and ulp-level
	// non-monotonicity of math.Exp.
	ksSlack = 1e-9
)

// KSExponentialInto is KSExponential with caller-provided scratch, so the
// streaming analysis path can reuse one across replications. It buckets
// the sample by x/mean, bounds each bucket from its least and greatest
// element, and sorts only the buckets whose bound exceeds the best
// candidate found; the package comment argues why the result equals a
// sort-then-scan bit for bit.
func KSExponentialInto(xs []float64, s *KSScratch) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := Mean(xs)
	if mean <= 0 {
		return 1
	}
	k := len(xs)/ksPerBucket + 1
	scale := float64(k) / (ksSpan * mean)
	last := float64(k - 1)
	bucket := func(x float64) int {
		q := x * scale
		if !(q > 0) { // negatives, zeros and NaN
			return 0
		}
		if q >= last {
			return k - 1
		}
		return int(q)
	}

	bs := slices.Grow(s.buckets[:0], k)[:k]
	clear(bs)
	s.buckets = bs
	for _, x := range xs {
		b := &bs[bucket(x)]
		if b.count == 0 {
			b.min, b.max = x, x
		} else if x < b.min {
			b.min = x
		} else if x > b.max {
			b.max = x
		}
		b.count++
	}

	n := float64(len(xs))
	cdf := func(x float64) float64 { return 1 - math.Exp(-x/mean) }
	var d float64
	rank := 0
	for i := range bs {
		b := &bs[i]
		if b.count == 0 {
			continue
		}
		b.lo = rank
		rank += b.count
		if b.min == b.max {
			b.count = -1 // nothing inside can exceed its ends
		}
		b.min, b.max = cdf(b.min), cdf(b.max)
		d = ksCandidates(d, b.min, b.lo, n)
		d = ksCandidates(d, b.max, rank-1, n)
	}

	// Keep the buckets that may hold D, each with its write cursor into
	// the sorted copy as count; every other bucket gets count −1.
	need := 0
	for i := range bs {
		b := &bs[i]
		if b.count <= 0 {
			b.count = -1
			continue
		}
		hi := b.lo + b.count
		if math.Max(b.max-float64(b.lo)/n, float64(hi)/n-b.min)+ksSlack <= d {
			b.count = -1
			continue
		}
		b.count, need = need, need+b.count
	}
	if need == 0 {
		return d
	}
	sorted := slices.Grow(s.sorted[:0], need)[:need]
	s.sorted = sorted
	for _, x := range xs {
		if b := &bs[bucket(x)]; b.count >= 0 {
			sorted[b.count] = x
			b.count++
		}
	}
	start := 0
	for i := range bs {
		b := &bs[i]
		if b.count < 0 {
			continue
		}
		seg := sorted[start:b.count]
		slices.Sort(seg)
		for j, x := range seg {
			d = ksCandidates(d, cdf(x), b.lo+j, n)
		}
		start = b.count
	}
	return d
}

// ksCandidates folds the two candidates of the element of rank i, whose
// CDF value is f, into d: its distance to the empirical CDF on both sides
// of the step.
func ksCandidates(d, f float64, i int, n float64) float64 {
	lo := float64(i) / n
	hi := float64(i+1) / n
	if diff := math.Abs(f - lo); diff > d {
		d = diff
	}
	if diff := math.Abs(f - hi); diff > d {
		d = diff
	}
	return d
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
