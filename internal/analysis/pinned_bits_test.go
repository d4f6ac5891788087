package analysis

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/lossmodel"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pinnedReport is every number of a Report the bench digest and the CLIs
// print, as raw float bits: a batch-path change that reassociates a sum or
// swaps an estimator moves at least one of them.
type pinnedReport struct {
	n                                int
	lambda, f001, f025, f1, iod, cov uint64
	ks                               uint64
	rejects                          bool
	hist                             uint64 // FNV-1a fold of the histogram counts and total
}

func pin(r *Report) pinnedReport {
	h := fnv.New64a()
	for i := 0; i < r.Hist.NumBins(); i++ {
		fmt.Fprintf(h, "%d,", r.Hist.Count(i))
	}
	fmt.Fprintf(h, "%d", r.Hist.Total())
	return pinnedReport{
		n:       r.N,
		lambda:  math.Float64bits(r.Lambda),
		f001:    math.Float64bits(r.FracBelow001),
		f025:    math.Float64bits(r.FracBelow025),
		f1:      math.Float64bits(r.FracBelow1),
		iod:     math.Float64bits(r.IndexOfDispersion),
		cov:     math.Float64bits(r.CoV),
		ks:      math.Float64bits(r.KSDistance),
		rejects: r.RejectsPoisson,
		hist:    h.Sum64(),
	}
}

func (p pinnedReport) String() string {
	return fmt.Sprintf("{n: %d, lambda: %#x, f001: %#x, f025: %#x, f1: %#x, iod: %#x, cov: %#x, ks: %#x, rejects: %v, hist: %#x}",
		p.n, p.lambda, p.f001, p.f025, p.f1, p.iod, p.cov, p.ks, p.rejects, p.hist)
}

// pinnedTraces builds the two trace shapes of the trace-analysis benchmark
// workload at 20k events from a fixed seed: a Gilbert–Elliott chain sampled
// once per 100 µs slot, and a homogeneous Poisson process (cumulative
// exponential gaps) at 10 losses per RTT.
func pinnedTraces() (bursty, null *trace.Recorder) {
	const (
		events = 20_000
		seed   = 20071
		slot   = 100 * sim.Microsecond
	)
	bursty, null = &trace.Recorder{}, &trace.Recorder{}
	ge := lossmodel.NewGilbertElliott(lossmodel.GEParams{PGB: 0.02, PBG: 0.2, KBad: 0.8},
		sim.NewRand(sim.SubSeed(seed, 0)))
	var at sim.Time
	for n := int64(0); bursty.Len() < events; n++ {
		at = at.Add(slot)
		if ge.Lost() {
			bursty.Add(trace.LossEvent{At: at, Flow: int(n % 16), Seq: n, Size: 1000})
		}
	}
	rng := sim.NewRand(sim.SubSeed(seed, 1))
	at = 0
	for n := int64(0); n < events; n++ {
		at = at.Add(sim.Exponential(rng, pinnedRTT/10))
		null.Add(trace.LossEvent{At: at, Flow: int(n % 16), Seq: n, Size: 1000})
	}
	return bursty, null
}

const pinnedRTT = 50 * sim.Millisecond

// TestAnalyzePinnedBits holds the batch path to the exact bits it produced
// before the measurement-path rewrite (table captured at commit 7fb00d8).
// The batch loops — sum then mean, Σ(x−mean)² in input order, population
// variance of window counts, KS over the sorted copy — are a contract: the
// bench digests and every golden hash these floats, so a "faster" mean,
// a fused pass or a Welford update is a behaviour change, not a refactor.
func TestAnalyzePinnedBits(t *testing.T) {
	want := map[string]pinnedReport{
		"bursty": {n: 20000, lambda: 0x4041fa7284367aa1, f001: 0x3fe8a69cf62175fc, f025: 0x3fef3dd7032968fa, f1: 0x3ff0000000000000, iod: 0x4019cca7626ce2cb, cov: 0x40039d8a239b78ff, ks: 0x3fe371414f643503, rejects: true, hist: 0xec42a7fcee939f05},
		"null":   {n: 20000, lambda: 0x4023edb35904bcc6, f001: 0x3fb834bd174f59e6, f025: 0x3fed55fb5dbd34cd, f1: 0x3feffec5695622b1, iod: 0x3ff078ff9a7c0623, cov: 0x3ff0267a83abf722, ks: 0x3f75ece265a2dfa0, rejects: false, hist: 0x395ee000c13e56e6},
		"merged": {n: 40000, lambda: 0x402f3563e04f2fd6, f001: 0x3fdbad34990b6139, f025: 0x3fee49e930734ee4, f1: 0x3fefff62b4ab1158, iod: 0x0, cov: 0x3ff76219c633151f, ks: 0x3fd51a62b2f8ec1a, rejects: true, hist: 0xa23629e9a0224a7d},
	}
	bursty, null := pinnedTraces()
	var reports []*Report
	for _, c := range []struct {
		name string
		rec  *trace.Recorder
	}{{"bursty", bursty}, {"null", null}} {
		r, err := AnalyzeTrace(c.rec, pinnedRTT, Config{})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, r)
		if got := pin(r); got != want[c.name] {
			t.Errorf("%s:\n got %v\nwant %v", c.name, got, want[c.name])
		}
	}
	m, err := Merge(reports, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pin(m); got != want["merged"] {
		t.Errorf("merged:\n got %v\nwant %v", got, want["merged"])
	}
}
