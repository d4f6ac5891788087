// Package analysis implements the paper's measurement methodology: from a
// loss trace and a path RTT it computes the inter-loss-interval PDF
// (bin size 0.02 RTT, plotted over 0–2 RTT with a log Y axis in the
// paper), the Poisson reference with the same average arrival rate, the
// headline burstiness fractions ("95% of losses cluster within 0.01 RTT"),
// and the loss-event grouping used to count how many flows observe a
// congestion event.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Config controls the PDF construction. The defaults are the paper's.
type Config struct {
	// BinWidth is the PDF resolution in RTT units (default 0.02).
	BinWidth float64
	// MaxInterval is the plotted range in RTT units (default 2.0).
	MaxInterval float64
	// DispersionWindow is the window (in RTT units) for the index of
	// dispersion (default 1.0).
	DispersionWindow float64
	// KSReservoir bounds how many intervals a Streaming analyzer retains
	// for the KS test (default DefaultKSReservoir). Batch Analyze ignores
	// it — the batch path holds every interval anyway.
	KSReservoir int
}

func (c *Config) fillDefaults() {
	if c.BinWidth == 0 {
		c.BinWidth = 0.02
	}
	if c.MaxInterval == 0 {
		c.MaxInterval = 2.0
	}
	if c.DispersionWindow == 0 {
		c.DispersionWindow = 1.0
	}
	if c.KSReservoir == 0 {
		c.KSReservoir = DefaultKSReservoir
	}
}

// Report is the full burstiness analysis of one loss trace.
type Report struct {
	N   int          // number of loss events analyzed
	RTT sim.Duration // normalization RTT

	// Intervals are the inter-loss times in RTT units.
	Intervals []float64

	// Hist is the measured PDF over [0, MaxInterval) RTTs.
	Hist *stats.Histogram

	// Lambda is the loss arrival rate in events per RTT, the rate of the
	// matched Poisson reference.
	Lambda float64

	// PoissonPMF is the per-bin mass of the matched Poisson process.
	PoissonPMF []float64

	// Headline fractions (of all intervals, not just in-range ones).
	FracBelow001 float64 // < 0.01 RTT
	FracBelow025 float64 // < 0.25 RTT
	FracBelow1   float64 // < 1 RTT

	// IndexOfDispersion of event counts in DispersionWindow-RTT windows;
	// ≈1 for Poisson, ≫1 for bursty processes.
	IndexOfDispersion float64

	// CoV is the coefficient of variation (std/mean) of the intervals.
	// An exponential (Poisson) interval distribution has CoV = 1 at any
	// rate, so this is the scale-robust burstiness-vs-Poisson statistic:
	// clustered losses give CoV ≫ 1.
	CoV float64

	// KSDistance is the Kolmogorov–Smirnov distance between the interval
	// distribution and the exponential law with the same mean, and
	// RejectsPoisson is the α=0.05 hypothesis-test verdict — the paper's
	// future-work "more rigorous analysis" of non-Poissonness.
	KSDistance     float64
	RejectsPoisson bool
}

// Clone returns an independent deep copy of the report. A Streaming
// analyzer's Finalize hands out a report whose slices live in the
// analyzer's scratch arena; callers that retain the report past the next
// Reset — sweep drivers keeping per-replication results — clone it first.
func (r *Report) Clone() *Report {
	c := *r
	c.Intervals = append([]float64(nil), r.Intervals...)
	c.PoissonPMF = append([]float64(nil), r.PoissonPMF...)
	if r.Hist != nil {
		c.Hist = r.Hist.Clone()
	}
	return &c
}

// Analyze computes the burstiness report for loss timestamps normalized by
// rtt. times must be nondecreasing. It returns an error when fewer than
// two losses exist (no intervals to analyze).
func Analyze(times []sim.Time, rtt sim.Duration, cfg Config) (*Report, error) {
	if rtt <= 0 {
		return nil, fmt.Errorf("analysis: RTT must be positive, got %v", rtt)
	}
	if len(times) < 2 {
		return nil, fmt.Errorf("analysis: need ≥2 losses, got %d", len(times))
	}
	cfg.fillDefaults()

	r := &Report{N: len(times), RTT: rtt}
	rttF := float64(rtt)
	r.Intervals = make([]float64, 0, len(times)-1)
	norm := make([]float64, len(times)) // times in RTT units for IoD
	prev := times[0]
	norm[0] = float64(times[0]) / rttF
	for i := 1; i < len(times); i++ {
		if times[i] < prev {
			return nil, fmt.Errorf("analysis: times not sorted at %d", i)
		}
		r.Intervals = append(r.Intervals, float64(times[i].Sub(prev))/rttF)
		norm[i] = float64(times[i]) / rttF
		prev = times[i]
	}

	r.IndexOfDispersion = stats.IndexOfDispersion(norm, cfg.DispersionWindow)
	r.fillFromIntervals(cfg)
	return r, nil
}

// fillFromIntervals sets every report field that is a function of
// r.Intervals alone: the histogram, the matched Poisson reference, the
// headline fractions, CoV, the KS distance and the verdict. Analyze and
// Merge share it; the index of dispersion needs loss times, not
// intervals, so Analyze computes it itself.
func (r *Report) fillFromIntervals(cfg Config) {
	nbins := int(cfg.MaxInterval/cfg.BinWidth + 0.5)
	r.Hist = stats.NewHistogram(cfg.BinWidth, nbins)
	r.Hist.AddAll(r.Intervals)
	mean := stats.Mean(r.Intervals)
	if mean > 0 {
		r.Lambda = 1 / mean
	}
	r.PoissonPMF = r.Hist.ExponentialPMF(r.Lambda)
	r.FracBelow001 = fracBelow(r.Intervals, 0.01)
	r.FracBelow025 = fracBelow(r.Intervals, 0.25)
	r.FracBelow1 = fracBelow(r.Intervals, 1.0)
	r.CoV = cov(r.Intervals, mean)
	r.KSDistance = stats.KSExponential(r.Intervals)
	r.RejectsPoisson = rejectsPoisson(r.KSDistance, len(r.Intervals))
}

// rejectsPoisson is the report's verdict: whether a KS distance d over n
// intervals rejects the rate-matched exponential at α = 0.05. Batch,
// streaming and aggregate reports all decide here.
func rejectsPoisson(d float64, n int) bool {
	return d > stats.KSCriticalValue(n, 0.05)
}

// cov is the sample standard deviation of xs over their mean (the
// caller's stats.Mean(xs)). The sum of squared deviations runs in input
// order: reports are compared bit for bit, so the order is part of the
// result.
func cov(xs []float64, mean float64) float64 {
	if mean == 0 || len(xs) < 2 {
		return 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(xs)-1)) / mean
}

// fracBelow counts exactly (the histogram's bin interpolation is too
// coarse for the paper's 0.01-RTT headline numbers).
func fracBelow(xs []float64, limit float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x < limit {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// AnalyzeTrace is Analyze applied to a trace recorder. A recorder that
// discarded events in sink mode holds only a prefix of what it counted;
// analyzing that prefix as the trace is an error.
func AnalyzeTrace(rec *trace.Recorder, rtt sim.Duration, cfg Config) (*Report, error) {
	if retained := len(rec.Events()); retained != rec.Len() {
		return nil, fmt.Errorf("analysis: recorder retained %d of %d counted events", retained, rec.Len())
	}
	return Analyze(rec.Times(), rtt, cfg)
}

// BurstinessVsPoisson summarizes how much burstier than Poisson the
// measured process is at the smallest bin: the ratio of measured to
// Poisson mass in bin 0. The paper's log-scale figures show 1–4 orders of
// magnitude.
func (r *Report) BurstinessVsPoisson() float64 {
	pmf := r.Hist.PMF()
	if len(pmf) == 0 || len(r.PoissonPMF) == 0 || r.PoissonPMF[0] == 0 {
		return 0
	}
	return pmf[0] / r.PoissonPMF[0]
}

// Merge combines normalized-interval reports from several paths (the
// paper's Figure 4 aggregates 650 paths after per-path RTT
// normalization). Each input contributes its normalized intervals; the
// merged Poisson reference uses the merged mean rate.
func Merge(reports []*Report, cfg Config) (*Report, error) {
	cfg.fillDefaults()
	var all []float64
	n := 0
	for _, rep := range reports {
		all = append(all, rep.Intervals...)
		n += rep.N
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("analysis: nothing to merge")
	}
	out := &Report{N: n, Intervals: all}
	out.fillFromIntervals(cfg)
	return out, nil
}

// GroupBursts clusters a time-sorted loss trace into drop bursts: runs of
// consecutive losses separated by gaps ≤ maxGap. This identifies the
// "loss signal burst periods" of the paper's Figures 5/6 analysis.
func GroupBursts(events []trace.LossEvent, maxGap sim.Duration) [][]trace.LossEvent {
	if len(events) == 0 {
		return nil
	}
	var out [][]trace.LossEvent
	cur := []trace.LossEvent{events[0]}
	for _, e := range events[1:] {
		if e.At.Sub(cur[len(cur)-1].At) <= maxGap {
			cur = append(cur, e)
		} else {
			out = append(out, cur)
			cur = []trace.LossEvent{e}
		}
	}
	return append(out, cur)
}

// DistinctFlows counts how many different flows appear in a burst — the
// number of flows that will observe the loss event (paper Eq. 1/2's
// L quantity, measured).
func DistinctFlows(burst []trace.LossEvent) int {
	seen := make(map[int]struct{}, len(burst))
	for _, e := range burst {
		seen[e.Flow] = struct{}{}
	}
	return len(seen)
}

// BurstStats summarizes the burst structure of a loss trace.
type BurstStats struct {
	Bursts        int
	MeanSize      float64 // packets per burst
	MeanFlows     float64 // distinct flows per burst
	MaxSize       int
	SingletonFrac float64 // fraction of bursts with a single drop
}

// SummarizeBursts computes burst statistics with the given clustering gap.
func SummarizeBursts(events []trace.LossEvent, maxGap sim.Duration) BurstStats {
	bursts := GroupBursts(events, maxGap)
	if len(bursts) == 0 {
		return BurstStats{}
	}
	var s BurstStats
	s.Bursts = len(bursts)
	singles := 0
	for _, b := range bursts {
		s.MeanSize += float64(len(b))
		s.MeanFlows += float64(DistinctFlows(b))
		if len(b) > s.MaxSize {
			s.MaxSize = len(b)
		}
		if len(b) == 1 {
			singles++
		}
	}
	s.MeanSize /= float64(len(bursts))
	s.MeanFlows /= float64(len(bursts))
	s.SingletonFrac = float64(singles) / float64(len(bursts))
	return s
}
