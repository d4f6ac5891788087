package analysis

import (
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Aggregate pools the burstiness statistics of many worlds into one
// bounded accumulator — the fleet layer's cross-world reducer. Each
// world runs its own Streaming analyzer to completion and is then
// Absorbed: the histograms, Welford moments, dispersion windows and KS
// reservoirs merge through the stats.Merge family, so the aggregate is a
// pure function of the sequence of absorbed worlds — independent of how
// many shards ran them — and its memory stays one analyzer's worth of
// scratch no matter how many worlds stream through.
//
// What is exact and what is approximate, per statistic:
//
//   - loss/interval counts, histogram bins, clustering fractions and the
//     pooled Lambda: exact sums and quotients;
//   - CoV (merged Welford moments) and the pooled index of dispersion:
//     equal to a single pass over the concatenated per-world intervals
//     up to floating-point associativity (worlds' windows pool, they do
//     not straddle — each world's clock starts at zero);
//   - the KS statistic: computed from the merged reservoir — exact while
//     the union of per-world intervals fits the bound, a deterministic
//     weighted subsample beyond it (stats.Reservoir.Merge).
//
// Like Streaming, an Aggregate belongs to one goroutine. In a fleet that
// goroutine is the merge turnstile, which absorbs worlds in index order —
// that ordering is what makes the aggregate byte-identical across shard
// counts.
type Aggregate struct {
	cfg    Config
	worlds int
	n      int // Σ per-world loss events
	rttSum sim.Duration
	disp   stats.DispersionStats
	tally  // the absorbed worlds' intervals, merged in absorb order
}

// NewAggregate builds an empty cross-world accumulator. The config plays
// the same role as in Analyze/Streaming and must match the config of
// every absorbed analyzer (Absorb enforces the bin layout).
func NewAggregate(cfg Config) *Aggregate {
	g := &Aggregate{}
	g.Reset(cfg)
	return g
}

// Reset clears the aggregate for a new fleet while keeping the scratch
// buffers, mirroring Streaming.Reset.
func (g *Aggregate) Reset(cfg Config) {
	cfg.fillDefaults()
	g.cfg = cfg
	g.worlds, g.n = 0, 0
	g.rttSum = 0
	g.disp = stats.DispersionStats{}
	g.tally.reset(cfg)
}

// Worlds reports how many analyzers were absorbed.
func (g *Aggregate) Worlds() int { return g.worlds }

// N reports the pooled loss-event count.
func (g *Aggregate) N() int { return g.n }

// Absorb merges one finished world's analyzer into the aggregate. The
// analyzer is read, not mutated, and need only stay alive for the call —
// fleets absorb an arena-owned analyzer right before the arena is
// reused. Analyzers with a different bin layout are a configuration bug
// and are rejected.
func (g *Aggregate) Absorb(s *Streaming) error {
	if s.hist.BinWidth != g.hist.BinWidth || s.hist.NumBins() != g.hist.NumBins() {
		return fmt.Errorf("analysis: aggregate bin layout %v×%d cannot absorb analyzer with %v×%d",
			g.hist.BinWidth, g.hist.NumBins(), s.hist.BinWidth, s.hist.NumBins())
	}
	g.worlds++
	g.n += s.n
	g.sum += s.sum
	g.b001 += s.b001
	g.b025 += s.b025
	g.b1 += s.b1
	g.rttSum += s.rtt

	g.hist.Merge(s.hist)
	g.mom.Merge(s.mom)
	g.disp.Merge(s.disp.Stats())
	g.res.Merge(&s.res)
	return nil
}

// KSExact reports whether the pooled KS statistic still covers every
// absorbed interval (true until the merged reservoir overflows).
func (g *Aggregate) KSExact() bool { return g.res.Exact() }

// Finalize computes the pooled report. Intervals are RTT-normalized per
// world before pooling (the paper's Figure-4 methodology), so Lambda,
// the histogram and the fractions all read in RTT units; the report's
// RTT field carries the mean of the absorbed worlds' RTTs for reference.
// Like Streaming.Finalize, the returned Report and its slices are owned
// by the aggregate and recycled by the next Reset; retain with Clone. It
// errors when fewer than two worlds' losses produced no interval at all.
func (g *Aggregate) Finalize() (*Report, error) {
	if g.mom.N < 1 {
		return nil, fmt.Errorf("analysis: aggregate has no intervals (absorbed %d worlds, %d losses)", g.worlds, g.n)
	}
	g.out = Report{N: g.n, IndexOfDispersion: g.disp.Value()}
	if g.worlds > 0 {
		g.out.RTT = g.rttSum / sim.Duration(g.worlds)
	}
	return g.finalize(), nil
}

// BurstAgg pools per-world BurstStats exactly: the per-world means are
// quotients of small integer sums, so the sums are recovered by rounding
// and re-divided once at the end — the pooled stats equal a single
// tracker fed every world's bursts (flows distinct within worlds).
type BurstAgg struct {
	bursts   int
	singles  int
	maxSize  int
	sumSize  int
	sumFlows int
}

// Reset forgets every absorbed world.
func (b *BurstAgg) Reset() { *b = BurstAgg{} }

// Add absorbs one world's burst summary.
func (b *BurstAgg) Add(s BurstStats) {
	if s.Bursts == 0 {
		return
	}
	b.bursts += s.Bursts
	b.singles += int(math.Round(s.SingletonFrac * float64(s.Bursts)))
	b.sumSize += int(math.Round(s.MeanSize * float64(s.Bursts)))
	b.sumFlows += int(math.Round(s.MeanFlows * float64(s.Bursts)))
	if s.MaxSize > b.maxSize {
		b.maxSize = s.MaxSize
	}
}

// Stats returns the pooled burst summary.
func (b *BurstAgg) Stats() BurstStats {
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
