package stats

import (
	"math"
	"runtime"
	"testing"
)

// splitStream generates a deterministic pseudo-random stream of n
// nonnegative values and returns it alongside the SplitMix64 state used,
// so tests can shard it any way they like.
func testStream(seed uint64, n int) []float64 {
	xs := make([]float64, n)
	s := seed
	for i := range xs {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		// Exponential-ish positive values in [0, ~8) with occasional spikes.
		xs[i] = 4 * float64(z%100_000) / 100_000 * (1 + float64(z%7))
	}
	return xs
}

// shardBounds cuts [0,n) into k contiguous shards.
func shardBounds(n, k int) [][2]int {
	out := make([][2]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// TestHistogramMergeExact pins Histogram.Merge(a,b) ≡ one histogram over
// the concatenated stream, for several shard counts.
func TestHistogramMergeExact(t *testing.T) {
	xs := testStream(1, 10_000)
	whole := NewHistogram(0.02, 100)
	whole.AddAll(xs)

	for _, shards := range []int{1, 2, 4, 16} {
		merged := NewHistogram(0.02, 100)
		for _, b := range shardBounds(len(xs), shards) {
			part := NewHistogram(0.02, 100)
			part.AddAll(xs[b[0]:b[1]])
			merged.Merge(part)
		}
		if merged.Total() != whole.Total() || merged.Overflow != whole.Overflow {
			t.Fatalf("shards=%d: total/overflow %d/%d, want %d/%d",
				shards, merged.Total(), merged.Overflow, whole.Total(), whole.Overflow)
		}
		for i := 0; i < whole.NumBins(); i++ {
			if merged.Count(i) != whole.Count(i) {
				t.Fatalf("shards=%d: bin %d count %d, want %d", shards, i, merged.Count(i), whole.Count(i))
			}
		}
	}
}

func TestHistogramMergeLayoutMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging mismatched layouts did not panic")
		}
	}()
	NewHistogram(0.02, 100).Merge(NewHistogram(0.05, 100))
}

// TestMomentsMergeMatchesSinglePass pins the Chan-style merge against a
// single Welford pass over the concatenated stream, and its bit-level
// determinism across repeated merges of the same shards.
func TestMomentsMergeMatchesSinglePass(t *testing.T) {
	xs := testStream(2, 50_000)
	var whole Moments
	for _, x := range xs {
		whole.Observe(x)
	}

	for _, shards := range []int{1, 3, 4, 16} {
		var merged, again Moments
		for _, b := range shardBounds(len(xs), shards) {
			var part Moments
			for _, x := range xs[b[0]:b[1]] {
				part.Observe(x)
			}
			merged.Merge(part)
			again.Merge(part)
		}
		if merged != again {
			t.Fatalf("shards=%d: merge of identical shards not bit-deterministic", shards)
		}
		if merged.N != whole.N {
			t.Fatalf("shards=%d: N=%d, want %d", shards, merged.N, whole.N)
		}
		if relErr(merged.Mean, whole.Mean) > 1e-12 || relErr(merged.M2, whole.M2) > 1e-9 {
			t.Fatalf("shards=%d: merged (%v, %v) vs single-pass (%v, %v)",
				shards, merged.Mean, merged.M2, whole.Mean, whole.M2)
		}
	}
}

func relErr(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// TestDispersionStatsMergeExact pins the pooled-window merge: worlds with
// independent clocks merge into exactly the IoD of the pooled windows,
// matching a hand-pooled batch computation.
func TestDispersionStatsMergeExact(t *testing.T) {
	// Three "worlds": each a sorted time stream starting at its own zero.
	worlds := [][]float64{
		{0.1, 0.15, 0.2, 1.7, 3.0, 3.05, 3.1},
		{0.5, 2.5},
		{0.01, 0.02, 0.03, 0.04, 5.9},
	}
	const window = 1.0

	var pooledCounts []float64
	var merged DispersionStats
	for _, times := range worlds {
		var c DispersionCounter
		c.Reset(window)
		counts := map[int64]float64{}
		var nwin int64
		for _, tt := range times {
			c.Observe(tt)
			idx := int64(tt / window)
			counts[idx]++
			if idx+1 > nwin {
				nwin = idx + 1
			}
		}
		for i := int64(0); i < nwin; i++ {
			pooledCounts = append(pooledCounts, counts[i])
		}
		merged.Merge(c.Stats())
	}

	// Batch IoD of the pooled window counts (population variance / mean).
	s := Summarize(pooledCounts)
	var ss float64
	for _, c := range pooledCounts {
		d := c - s.Mean
		ss += d * d
	}
	want := (ss / float64(len(pooledCounts))) / s.Mean

	if math.Abs(merged.Value()-want) > 1e-12 {
		t.Fatalf("merged IoD %v, want pooled-batch %v", merged.Value(), want)
	}
	if merged.Windows != int64(len(pooledCounts)) {
		t.Fatalf("merged windows %d, want %d", merged.Windows, len(pooledCounts))
	}
}

// TestDispersionStatsSingleShardMatchesCounter pins the snapshot as the
// identity shard: Stats().Value() must equal the counter's own Value().
func TestDispersionStatsSingleShardMatchesCounter(t *testing.T) {
	var c DispersionCounter
	c.Reset(0.5)
	for _, tt := range testStream(3, 1000) {
		c.Observe(tt) // testStream is not sorted; sort by construction
	}
	// Re-feed sorted: counters require nondecreasing times.
	c.Reset(0.5)
	t0 := 0.0
	for _, dt := range testStream(3, 1000) {
		t0 += dt / 10
		c.Observe(t0)
	}
	if got, want := c.Stats().Value(), c.Value(); got != want {
		t.Fatalf("Stats().Value()=%v, want Value()=%v", got, want)
	}
}

// TestReservoirExactUnderBound pins the merge's exact regime: while the
// union of two exact reservoirs fits the bound, merging concatenates
// every observation.
func TestReservoirExactUnderBound(t *testing.T) {
	var a, b stRes = newRes(100), newRes(100)
	for i := 0; i < 30; i++ {
		a.Observe(float64(i))
	}
	for i := 0; i < 40; i++ {
		b.Observe(float64(100 + i))
	}
	a.Merge(b)
	if !a.Exact() || a.seen != 70 || len(a.Items()) != 70 {
		t.Fatalf("exact merge: seen=%d items=%d exact=%v", a.seen, len(a.Items()), a.Exact())
	}
	for i, want := range []float64{0, 1, 2} {
		if a.Items()[i] != want {
			t.Fatalf("item %d = %v, want %v", i, a.Items()[i], want)
		}
	}
	if a.Items()[30] != 100 {
		t.Fatalf("item 30 = %v, want 100", a.Items()[30])
	}
}

type stRes = *Reservoir

func newRes(bound int) *Reservoir {
	var r Reservoir
	r.Reset(bound)
	return &r
}

// TestReservoirSingleStreamMatchesStreamingPolicy pins the extracted
// reservoir against the historical inline policy: same seed, same
// replacement decisions, so a single-world fleet keeps byte-identical KS
// inputs.
func TestReservoirSingleStreamMatchesStreamingPolicy(t *testing.T) {
	const bound = 64
	xs := testStream(4, 1000)

	r := newRes(bound)
	// The historical policy, inlined.
	var items []float64
	var seen int64
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng += 0x9e3779b97f4a7c15
		z := rng
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for _, x := range xs {
		r.Observe(x)
		seen++
		if len(items) < bound {
			items = append(items, x)
			continue
		}
		if j := next() % uint64(seen); j < uint64(bound) {
			items[j] = x
		}
	}
	if len(r.Items()) != len(items) {
		t.Fatalf("retained %d, want %d", len(r.Items()), len(items))
	}
	for i := range items {
		if r.Items()[i] != items[i] {
			t.Fatalf("item %d = %v, want %v", i, r.Items()[i], items[i])
		}
	}
}

// TestReservoirMergeDeterministic pins the overflowing merge as a pure
// function of its inputs: merging equal shard sequences yields equal
// retained samples, and the merged seen-count is exact.
func TestReservoirMergeDeterministic(t *testing.T) {
	build := func() *Reservoir {
		m := newRes(50)
		for s := 0; s < 4; s++ {
			part := newRes(50)
			for _, x := range testStream(uint64(10+s), 300) {
				part.Observe(x)
			}
			m.Merge(part)
		}
		return m
	}
	a, b := build(), build()
	if a.seen != 4*300 {
		t.Fatalf("merged seen %d, want %d", a.seen, 4*300)
	}
	if a.Exact() {
		t.Fatal("overflowed merge should not report exact")
	}
	if len(a.Items()) != 50 {
		t.Fatalf("retained %d, want bound 50", len(a.Items()))
	}
	for i := range a.Items() {
		if a.Items()[i] != b.Items()[i] {
			t.Fatalf("item %d differs between identical merges: %v vs %v", i, a.Items()[i], b.Items()[i])
		}
	}
}

// TestReservoirFillAllocs bounds what filling a reservoir to its bound
// allocates in all: the retained slice doubles, so the copies it leaves
// behind add up to less than the final slice. append's ~1.25× steps for
// large slices allocate about five times it.
func TestReservoirFillAllocs(t *testing.T) {
	const n = 1 << 17
	xs := testStream(5, n)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var r Reservoir
	r.Reset(n)
	for _, x := range xs {
		r.Observe(x)
	}
	runtime.ReadMemStats(&after)
	if got, budget := after.TotalAlloc-before.TotalAlloc, uint64(2*8*n+4<<10); got > budget {
		t.Errorf("filling a reservoir with %d items allocated %d bytes, want ≤ %d", n, got, budget)
	}
	if len(r.Items()) != n || cap(r.Items()) != n {
		t.Fatalf("len %d cap %d, want %d", len(r.Items()), cap(r.Items()), n)
	}
}
