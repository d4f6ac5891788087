package analysis

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

// randomLossTimes draws a bursty synthetic loss process: Poisson
// background arrivals plus tight sub-RTT clusters, the shape every real
// trace in the repository has. Times are sorted (both analyzers require
// nondecreasing input).
func randomLossTimes(rng *rand.Rand, n int, rtt sim.Duration) []sim.Time {
	out := make([]sim.Time, 0, n)
	t := float64(0)
	for len(out) < n {
		// A cluster of 1..8 losses within a quarter RTT, then a long gap.
		t += rng.ExpFloat64() * 20 * float64(rtt)
		k := 1 + rng.Intn(8)
		ct := t
		for i := 0; i < k && len(out) < n; i++ {
			ct += rng.Float64() * float64(rtt) / 4
			out = append(out, sim.Time(ct))
		}
		t = ct
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func relClose(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= tol*scale
}

// TestStreamingMatchesBatchRandom is the property-test half of the
// streaming/batch contract: for randomized bursty loss processes, feeding
// the events one at a time through a sink-mode recorder must reproduce
// the batch Report — exactly for the integer-derived statistics, within
// tolerance for the online moments — and the recorder must retain
// nothing. One analyzer is reused (Reset) across all cases to exercise
// the scratch recycling.
func TestStreamingMatchesBatchRandom(t *testing.T) {
	t.Parallel()
	const rtt = 50 * sim.Millisecond
	var s *Streaming
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(2000)
		times := randomLossTimes(rng, n, rtt)

		batch, err := analyzeTimes(times, rtt, Config{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}

		if s == nil {
			if s, err = NewStreaming(rtt, Config{}); err != nil {
				t.Fatal(err)
			}
		} else if err = s.Reset(rtt, Config{}); err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		rec.SetSink(func(e trace.LossEvent) { s.Observe(e) }, false)
		for i, at := range times {
			rec.Add(trace.LossEvent{At: at, Flow: i % 7, Seq: int64(i)})
		}
		if len(rec.Events()) != 0 {
			t.Fatalf("seed %d: sink-mode recorder retained %d events", seed, len(rec.Events()))
		}
		if rec.Len() != len(times) || s.n != len(times) {
			t.Fatalf("seed %d: counts diverged: rec %d analyzer %d want %d",
				seed, rec.Len(), s.n, len(times))
		}

		stream, err := s.Finalize()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if stream.N != batch.N || stream.Lambda != batch.Lambda {
			t.Fatalf("seed %d: N/Lambda diverged: %d/%v vs %d/%v",
				seed, stream.N, stream.Lambda, batch.N, batch.Lambda)
		}
		if stream.FracBelow001 != batch.FracBelow001 ||
			stream.FracBelow025 != batch.FracBelow025 ||
			stream.FracBelow1 != batch.FracBelow1 {
			t.Fatalf("seed %d: fractions diverged", seed)
		}
		if stream.KSDistance != batch.KSDistance ||
			stream.RejectsPoisson != batch.RejectsPoisson {
			t.Fatalf("seed %d: KS diverged: %v vs %v", seed, stream.KSDistance, batch.KSDistance)
		}
		if !relClose(stream.CoV, batch.CoV, 1e-9) {
			t.Fatalf("seed %d: CoV %v vs %v", seed, stream.CoV, batch.CoV)
		}
		if !relClose(stream.IndexOfDispersion, batch.IndexOfDispersion, 1e-9) {
			t.Fatalf("seed %d: IoD %v vs %v", seed, stream.IndexOfDispersion, batch.IndexOfDispersion)
		}
		if stream.Hist.Total() != batch.Hist.Total() || stream.Hist.Overflow != batch.Hist.Overflow {
			t.Fatalf("seed %d: histogram totals diverged", seed)
		}
		for i := 0; i < batch.Hist.NumBins(); i++ {
			if stream.Hist.Count(i) != batch.Hist.Count(i) {
				t.Fatalf("seed %d: bin %d diverged", seed, i)
			}
			if stream.PoissonPMF[i] != batch.PoissonPMF[i] {
				t.Fatalf("seed %d: poisson bin %d diverged", seed, i)
			}
		}
		for i := range batch.Intervals {
			if stream.Intervals[i] != batch.Intervals[i] {
				t.Fatalf("seed %d: interval %d diverged", seed, i)
			}
		}
	}
}

// TestStreamingReservoirOverflow drives the analyzer past its KS
// reservoir bound: the exact statistics must stay exact, the reservoir
// must hold exactly the bound, the KS distance must stay a valid
// statistic, and two identical streams must produce identical reports
// (the reservoir sampling is deterministic).
func TestStreamingReservoirOverflow(t *testing.T) {
	t.Parallel()
	const rtt = 50 * sim.Millisecond
	cfg := Config{KSReservoir: 64}
	times := randomLossTimes(rand.New(rand.NewSource(7)), 500, rtt)

	run := func() *Report {
		s, err := NewStreaming(rtt, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, at := range times {
			s.ObserveTime(at)
		}
		if s.res.Exact() {
			t.Fatal("reservoir did not overflow")
		}
		rep, err := s.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return rep.Clone()
	}
	a, b := run(), run()

	batch, err := analyzeTimes(times, rtt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if a.N != batch.N || a.Lambda != batch.Lambda || a.FracBelow001 != batch.FracBelow001 {
		t.Fatal("exact statistics drifted under reservoir overflow")
	}
	if len(a.Intervals) != 64 {
		t.Fatalf("reservoir holds %d intervals, want 64", len(a.Intervals))
	}
	if a.KSDistance <= 0 || a.KSDistance > 1 {
		t.Fatalf("KS distance %v outside (0,1]", a.KSDistance)
	}
	if a.KSDistance != b.KSDistance || !equalFloats(a.Intervals, b.Intervals) {
		t.Fatal("reservoir sampling is nondeterministic")
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBurstTrackerMatchesSummarize pins the online burst tracker to the
// batch SummarizeBursts over randomized traces and several gaps.
func TestBurstTrackerMatchesSummarize(t *testing.T) {
	t.Parallel()
	const rtt = 50 * sim.Millisecond
	var bt BurstTracker
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		times := randomLossTimes(rng, 1+rng.Intn(800), rtt)
		events := make([]trace.LossEvent, len(times))
		for i, at := range times {
			events[i] = trace.LossEvent{At: at, Flow: i % 5}
		}
		for _, gap := range []sim.Duration{rtt / 4, rtt, 10 * rtt} {
			bt.Reset(gap)
			for _, e := range events {
				bt.Observe(e)
			}
			got, want := bt.Stats(), SummarizeBursts(events, gap)
			if got != want {
				t.Fatalf("seed %d gap %v: %+v != %+v", seed, gap, got, want)
			}
		}
	}
}
