package analysis

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// analyzeTimes runs the batch analysis over a slice of loss times, the
// form these tests build their traces in.
func analyzeTimes(times []sim.Time, rtt sim.Duration, cfg Config) (*Report, error) {
	return analyze(len(times), func(i int) sim.Time { return times[i] }, rtt, cfg)
}

func TestAnalyzeBurstyTrace(t *testing.T) {
	// 10 bursts of 10 losses 0.1 ms apart, bursts 1 s apart; RTT = 100 ms.
	rtt := 100 * sim.Millisecond
	var times []sim.Time
	for b := 0; b < 10; b++ {
		base := sim.Time(int64(b) * int64(sim.Second))
		for i := 0; i < 10; i++ {
			times = append(times, base.Add(sim.Duration(i)*100*sim.Microsecond))
		}
	}
	r, err := analyzeTimes(times, rtt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 100 || len(r.Intervals) != 99 {
		t.Fatalf("n=%d intervals=%d", r.N, len(r.Intervals))
	}
	// 90 of 99 intervals are 0.001 RTT — far below 0.01 RTT.
	if r.FracBelow001 < 0.85 || r.FracBelow001 > 0.95 {
		t.Fatalf("frac<0.01RTT = %v, want ≈0.91", r.FracBelow001)
	}
	if r.FracBelow1 < r.FracBelow001 {
		t.Fatal("fraction below 1 RTT smaller than below 0.01 RTT")
	}
	// Much burstier than Poisson at the smallest bin.
	if r.BurstinessVsPoisson() < 5 {
		t.Fatalf("burstiness ratio = %v, want ≫1", r.BurstinessVsPoisson())
	}
	if r.IndexOfDispersion < 2 {
		t.Fatalf("IoD = %v, want ≫1", r.IndexOfDispersion)
	}
}

func TestAnalyzePoissonTraceMatchesReference(t *testing.T) {
	// Exponential inter-loss times: PDF must track the Poisson reference
	// and the burstiness ratio must be ≈1.
	rng := sim.NewRand(1)
	rtt := 100 * sim.Millisecond
	var times []sim.Time
	cur := sim.Time(0)
	for i := 0; i < 50000; i++ {
		cur = cur.Add(sim.Exponential(rng, 50*sim.Millisecond)) // λ = 2/RTT
		times = append(times, cur)
	}
	r, err := analyzeTimes(times, rtt, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Lambda < 1.9 || r.Lambda > 2.1 {
		t.Fatalf("lambda = %v, want ≈2 per RTT", r.Lambda)
	}
	ratio := r.BurstinessVsPoisson()
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("Poisson trace burstiness ratio = %v, want ≈1", ratio)
	}
	if r.IndexOfDispersion > 1.3 {
		t.Fatalf("Poisson IoD = %v", r.IndexOfDispersion)
	}
}

func TestAnalyzeErrors(t *testing.T) {
	if _, err := analyzeTimes([]sim.Time{1}, sim.Duration(1), Config{}); err == nil {
		t.Fatal("single loss accepted")
	}
	if _, err := analyzeTimes([]sim.Time{1, 2}, 0, Config{}); err == nil {
		t.Fatal("zero RTT accepted")
	}
	if _, err := analyzeTimes([]sim.Time{5, 3}, sim.Duration(1), Config{}); err == nil {
		t.Fatal("unsorted times accepted")
	}
	// The dispersion windows count from time 0: a loss before it is an
	// error, not a negative window index.
	neg := []sim.Time{-300 * sim.Time(sim.Millisecond), 0, 100}
	if _, err := analyzeTimes(neg, 100*sim.Millisecond, Config{}); err == nil ||
		!strings.Contains(err.Error(), "before time 0") {
		t.Fatalf("negative first loss: err = %v, want it named as before time 0", err)
	}
}

func TestAnalyzeTrace(t *testing.T) {
	rec := &trace.Recorder{}
	rec.Add(trace.LossEvent{At: 0})
	rec.Add(trace.LossEvent{At: sim.Time(sim.Millisecond)})
	rec.Add(trace.LossEvent{At: sim.Time(sim.Second)})
	r, err := AnalyzeTrace(rec, 100*sim.Millisecond, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if r.N != 3 {
		t.Fatalf("n = %d", r.N)
	}
}

func TestMergeAggregatesPaths(t *testing.T) {
	mk := func(rtt sim.Duration, gap sim.Duration, n int) *Report {
		var times []sim.Time
		for i := 0; i < n; i++ {
			times = append(times, sim.Time(int64(i)*int64(gap)))
		}
		r, err := analyzeTimes(times, rtt, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	// Path A: gaps of 0.001 RTT; path B: gaps of 1.5 RTT.
	a := mk(100*sim.Millisecond, 100*sim.Microsecond, 100)
	b := mk(10*sim.Millisecond, 15*sim.Millisecond, 100)
	m, err := Merge([]*Report{a, b}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 200 || len(m.Intervals) != 198 {
		t.Fatalf("merged n=%d intervals=%d", m.N, len(m.Intervals))
	}
	// Half the intervals tiny, half at 1.5 RTT ⇒ frac<0.01 ≈ 0.5.
	if m.FracBelow001 < 0.45 || m.FracBelow001 > 0.55 {
		t.Fatalf("merged frac<0.01 = %v", m.FracBelow001)
	}
	if _, err := Merge(nil, Config{}); err == nil {
		t.Fatal("empty merge accepted")
	}
}

func TestGroupBursts(t *testing.T) {
	ms := sim.Millisecond
	ev := []trace.LossEvent{
		{At: sim.Time(0), Flow: 1},
		{At: sim.Time(1 * ms), Flow: 2},
		{At: sim.Time(2 * ms), Flow: 1},
		{At: sim.Time(100 * ms), Flow: 3},
		{At: sim.Time(101 * ms), Flow: 3},
	}
	bursts := GroupBursts(ev, 10*ms)
	if len(bursts) != 2 {
		t.Fatalf("bursts = %d", len(bursts))
	}
	if len(bursts[0]) != 3 || len(bursts[1]) != 2 {
		t.Fatalf("burst sizes %d,%d", len(bursts[0]), len(bursts[1]))
	}
	if DistinctFlows(bursts[0]) != 2 || DistinctFlows(bursts[1]) != 1 {
		t.Fatal("distinct flow counts wrong")
	}
	if GroupBursts(nil, ms) != nil {
		t.Fatal("empty group should be nil")
	}
}

func TestSummarizeBursts(t *testing.T) {
	ms := sim.Millisecond
	ev := []trace.LossEvent{
		{At: sim.Time(0), Flow: 1},
		{At: sim.Time(1 * ms), Flow: 2},
		{At: sim.Time(500 * ms), Flow: 3},
	}
	s := SummarizeBursts(ev, 10*ms)
	if s.Bursts != 2 || s.MaxSize != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if math.Abs(s.MeanSize-1.5) > 1e-9 || math.Abs(s.MeanFlows-1.5) > 1e-9 {
		t.Fatalf("means = %+v", s)
	}
	if s.SingletonFrac != 0.5 {
		t.Fatalf("singleton frac = %v", s.SingletonFrac)
	}
	if z := SummarizeBursts(nil, ms); z.Bursts != 0 {
		t.Fatal("empty summary nonzero")
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.BinWidth != 0.02 || c.MaxInterval != 2.0 {
		t.Fatalf("defaults = %+v", c)
	}
	// 100 bins as in the paper.
	times := []sim.Time{0, 1000, 2000}
	r, _ := analyzeTimes(times, sim.Duration(1000), Config{})
	if r.Hist.NumBins() != 100 {
		t.Fatalf("bins = %d", r.Hist.NumBins())
	}
}

// TestAnalyzeTraceRefusesTruncatedRecorder: a recorder that discarded
// events in sink mode holds a prefix of the trace, not the trace.
func TestAnalyzeTraceRefusesTruncatedRecorder(t *testing.T) {
	rec := &trace.Recorder{}
	rec.Add(trace.LossEvent{At: 1})
	rec.Add(trace.LossEvent{At: 2})
	rec.SetSink(func(trace.LossEvent) {}, false)
	rec.Add(trace.LossEvent{At: 3})
	_, err := AnalyzeTrace(rec, 100*sim.Millisecond, Config{})
	if err == nil || !strings.Contains(err.Error(), "retained 2 of 3") {
		t.Fatalf("AnalyzeTrace of a discarding recorder: %v", err)
	}
}

// allocBytes reports the heap bytes one call of f allocates, averaged over
// runs calls after a warm-up call, on one processor as
// testing.AllocsPerRun measures.
func allocBytes(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestAnalyzeTraceAllocs bounds the batch analysis of n events: the
// report's n−1 intervals, the KS scratch, the dispersion window counts and
// a few fixed-size pieces. A copy of the event times or of the normalized
// times (8n bytes each) exceeds it.
func TestAnalyzeTraceAllocs(t *testing.T) {
	bursty, null := pinnedTraces()
	for _, rec := range []*trace.Recorder{bursty, null} {
		events := rec.Events()
		rep, err := AnalyzeTrace(rec, pinnedRTT, Config{})
		if err != nil {
			t.Fatal(err)
		}
		ks := allocBytes(3, func() { stats.KSExponential(rep.Intervals) })
		windows := uint64(float64(events[len(events)-1].At)/float64(pinnedRTT)) + 1
		budget := 8*uint64(len(rep.Intervals)) + ks + 8*windows + 24<<10
		got := allocBytes(3, func() {
			if _, err := AnalyzeTrace(rec, pinnedRTT, Config{}); err != nil {
				t.Fatal(err)
			}
		})
		if got > budget {
			t.Errorf("AnalyzeTrace of %d events allocated %d bytes, want ≤ %d (KS scratch %d, %d windows)",
				len(events), got, budget, ks, windows)
		}
	}
}
