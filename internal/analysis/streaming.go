package analysis

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// DefaultKSReservoir bounds how many intervals a Streaming analyzer
// retains for the Kolmogorov–Smirnov test when the config does not say
// otherwise. Every registered scenario and figure stays far below it, so
// the streamed KS statistic is normally exact; past the bound the
// analyzer switches to a deterministic reservoir sample (see Streaming).
const DefaultKSReservoir = 1 << 17

// Streaming is the online form of AnalyzeTrace: it is fed one loss event
// at a time — typically straight from a netsim.Port.OnDrop callback
// through a sink-mode trace.Recorder — and maintains every statistic of a
// Report incrementally, so a sweep analyzes its loss process while the
// world runs instead of retaining the trace and batch-processing it
// afterwards.
//
// What it maintains, and how it relates to the batch path:
//
//   - the inter-loss histogram and the clustering fractions: exact, the
//     same counts AnalyzeTrace produces;
//   - the interval mean (and so Lambda and the Poisson reference):
//     bit-identical, accumulated in arrival order like stats.Mean;
//   - the coefficient of variation via Welford's online moments and the
//     windowed index of dispersion via stats.DispersionCounter: equal to
//     the batch values up to floating-point associativity;
//   - the KS distance from a bounded reservoir of intervals: exact while
//     the trace fits the reservoir (the normal case), a deterministic
//     uniform sample beyond it.
//
// TestStreamingMatchesBatch pins the equivalence over every registered
// scenario. A Streaming analyzer belongs to one goroutine, like every
// other per-world component; Reset recycles all scratch (histogram,
// reservoir, sort and PMF buffers) so replications on the same worker
// run allocation-free.
type Streaming struct {
	cfg  Config
	rtt  sim.Duration
	rttF float64

	n    int      // loss events observed
	last sim.Time // time of the previous event
	disp stats.DispersionCounter
	tally
}

// tally is the interval state Streaming and Aggregate share: Streaming
// fills it one interval at a time, Aggregate by merging analyzers, and
// both finalize it the same way.
type tally struct {
	sum  float64       // Σ intervals, in arrival order (batch-identical mean)
	mom  stats.Moments // mom.N counts the intervals
	b001 int           // intervals < 0.01 RTT
	b025 int           // intervals < 0.25 RTT
	b1   int           // intervals < 1 RTT
	hist *stats.Histogram
	res  stats.Reservoir // retained intervals for the KS test

	pmf []float64       // Poisson reference scratch
	ks  stats.KSScratch // KS buckets and sort scratch
	out Report          // finalized in place, reused across Reset
}

// reset empties the tally for cfg (defaults filled), keeping every
// scratch buffer. The reservoir's fixed seed keeps sampling a pure
// function of the interval stream, so sweeps and fleets stay
// worker-count invariant.
func (t *tally) reset(cfg Config) {
	t.sum = 0
	t.mom.Reset()
	t.b001, t.b025, t.b1 = 0, 0, 0
	nbins := int(cfg.MaxInterval/cfg.BinWidth + 0.5)
	if t.hist != nil && t.hist.NumBins() == nbins && t.hist.BinWidth == cfg.BinWidth {
		t.hist.Reset()
	} else {
		t.hist = stats.NewHistogram(cfg.BinWidth, nbins)
	}
	t.res.Reset(cfg.KSReservoir)
}

// finalize fills every interval statistic of t.out — the caller has set
// N, RTT and IndexOfDispersion — and returns it. There is at least one
// interval.
func (t *tally) finalize() *Report {
	count := int(t.mom.N)
	mean := t.sum / float64(count)
	t.out.Hist = t.hist
	t.out.Intervals = t.res.Items()
	if mean > 0 {
		t.out.Lambda = 1 / mean
	}
	t.pmf = t.hist.AppendExponentialPMF(t.pmf[:0], t.out.Lambda)
	t.out.PoissonPMF = t.pmf
	t.out.FracBelow001 = float64(t.b001) / float64(count)
	t.out.FracBelow025 = float64(t.b025) / float64(count)
	t.out.FracBelow1 = float64(t.b1) / float64(count)
	if count > 1 && mean != 0 {
		t.out.CoV = sampleStd(t.mom.M2, count) / mean
	}
	t.out.KSDistance = stats.KSExponentialInto(t.res.Items(), &t.ks)
	t.out.RejectsPoisson = rejectsPoisson(t.out.KSDistance, len(t.res.Items()))
	return &t.out
}

// NewStreaming builds an online analyzer for losses on a path with the
// given RTT. The config defaults match AnalyzeTrace's.
func NewStreaming(rtt sim.Duration, cfg Config) (*Streaming, error) {
	s := &Streaming{}
	if err := s.Reset(rtt, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset clears all state for a new run while keeping every scratch buffer,
// so one analyzer serves many replications without reallocating. The bin
// layout is rebuilt only when the config changes it.
func (s *Streaming) Reset(rtt sim.Duration, cfg Config) error {
	if rtt <= 0 {
		return fmt.Errorf("analysis: RTT must be positive, got %v", rtt)
	}
	cfg.fillDefaults()
	s.cfg = cfg
	s.rtt = rtt
	s.rttF = float64(rtt)

	s.n = 0
	s.last = 0
	s.disp.Reset(dispersionWindow)
	s.tally.reset(cfg)
	return nil
}

// Observe feeds one loss event. Events must arrive in nondecreasing time
// order — the order a single simulated world produces them in — and
// nothing of the event is retained, which is what lets a sink-mode
// recorder drop the trace entirely.
func (s *Streaming) Observe(e trace.LossEvent) { s.ObserveTime(e.At) }

// ObserveTime feeds one loss timestamp (the analysis uses only times).
func (s *Streaming) ObserveTime(t sim.Time) {
	if s.n > 0 && t < s.last {
		panic(fmt.Sprintf("analysis: streaming observation at %v before %v", t, s.last))
	}
	s.disp.Observe(float64(t) / s.rttF)
	if s.n == 0 {
		s.n = 1
		s.last = t
		return
	}
	iv := float64(t.Sub(s.last)) / s.rttF
	s.n++
	s.last = t

	s.sum += iv
	s.mom.Observe(iv) // Welford: numerically stable online mean/variance

	s.hist.Add(iv)
	if iv < 0.01 {
		s.b001++
	}
	if iv < 0.25 {
		s.b025++
	}
	if iv < 1.0 {
		s.b1++
	}
	s.res.Observe(iv)
}

// Finalize computes the report for everything observed so far. The
// returned Report and its slices (Intervals, Hist, PoissonPMF) are owned
// by the analyzer and recycled by the next Reset; callers that retain a
// report across runs must Clone it. Like AnalyzeTrace, it errors when fewer
// than two losses were observed.
func (s *Streaming) Finalize() (*Report, error) {
	if s.n < 2 {
		return nil, fmt.Errorf("analysis: need ≥2 losses, got %d", s.n)
	}
	s.out = Report{N: s.n, RTT: s.rtt, IndexOfDispersion: s.disp.Value()}
	return s.finalize(), nil
}

// sampleStd is the unbiased sample standard deviation from a Welford M2
// accumulator over n samples.
func sampleStd(m2 float64, n int) float64 {
	if n < 2 {
		return 0
	}
	return math.Sqrt(m2 / float64(n-1))
}

// BurstTracker is the online form of SummarizeBursts: it groups a
// time-ordered loss stream into drop bursts (gaps ≤ maxGap, the same rule
// as GroupBursts) as events arrive, maintaining the burst statistics
// without retaining the events. The distinct-flow set of the current
// burst is the only working storage, and it is recycled burst to burst
// and Reset to Reset.
type BurstTracker struct {
	maxGap sim.Duration
	last   sim.Time

	curSize  int
	curFlows map[int]struct{}

	bursts   int
	singles  int
	maxSize  int
	sumSize  int
	sumFlows int
}

// Reset prepares the tracker for a new run with the given clustering gap.
func (b *BurstTracker) Reset(maxGap sim.Duration) {
	b.maxGap = maxGap
	b.last = 0
	b.curSize = 0
	if b.curFlows == nil {
		b.curFlows = make(map[int]struct{}, 16)
	} else {
		clear(b.curFlows)
	}
	b.bursts, b.singles, b.maxSize, b.sumSize, b.sumFlows = 0, 0, 0, 0, 0
}

// Observe feeds one loss event (nondecreasing times).
func (b *BurstTracker) Observe(e trace.LossEvent) {
	if b.curSize > 0 && e.At.Sub(b.last) > b.maxGap {
		b.closeBurst()
	}
	b.curSize++
	b.curFlows[e.Flow] = struct{}{}
	b.last = e.At
}

func (b *BurstTracker) closeBurst() {
	b.bursts++
	b.sumSize += b.curSize
	b.sumFlows += len(b.curFlows)
	if b.curSize > b.maxSize {
		b.maxSize = b.curSize
	}
	if b.curSize == 1 {
		b.singles++
	}
	b.curSize = 0
	clear(b.curFlows)
}

// Stats closes the open burst and returns the summary — the same numbers
// SummarizeBursts computes from a retained trace. The tracker remains
// usable only after another Reset.
func (b *BurstTracker) Stats() BurstStats {
	if b.curSize > 0 {
		b.closeBurst()
	}
	if b.bursts == 0 {
		return BurstStats{}
	}
	return BurstStats{
		Bursts:        b.bursts,
		MeanSize:      float64(b.sumSize) / float64(b.bursts),
		MeanFlows:     float64(b.sumFlows) / float64(b.bursts),
		MaxSize:       b.maxSize,
		SingletonFrac: float64(b.singles) / float64(b.bursts),
	}
}
