package stats

import (
	"sort"
	"testing"
)

// partitionRNG is a SplitMix64 stream for shard assignment, independent of
// the value stream so re-seeding one never perturbs the other.
func partitionRNG(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}

// TestMergeRandomPartitions is the adversarial sharding property: split
// the same stream into k shards by RANDOM assignment — not the contiguous
// cuts a well-behaved fleet would produce, so shard sizes are wildly
// uneven and some shards are empty — and the merged Moments and Histogram
// must still reproduce the single-pass result. An always-empty trailing
// shard checks that merging a zero-observation part is the identity.
func TestMergeRandomPartitions(t *testing.T) {
	xs := testStream(9, 20_000)
	var wholeM Moments
	for _, x := range xs {
		wholeM.Observe(x)
	}
	wholeH := NewHistogram(0.02, 100)
	wholeH.AddAll(xs)

	for _, k := range []int{2, 7, 33} {
		for trial := uint64(0); trial < 3; trial++ {
			next := partitionRNG(uint64(k)*1000 + trial)
			partsM := make([]Moments, k)
			partsH := make([]*Histogram, k)
			for i := range partsH {
				partsH[i] = NewHistogram(0.02, 100)
			}
			for _, x := range xs {
				s := int(next() % uint64(k))
				partsM[s].Observe(x)
				partsH[s].Add(x)
			}

			var mergedM Moments
			mergedH := NewHistogram(0.02, 100)
			for i := 0; i < k; i++ {
				mergedM.Merge(partsM[i])
				mergedH.Merge(partsH[i])
			}
			// Identity: an empty shard contributes nothing.
			mergedM.Merge(Moments{})
			mergedH.Merge(NewHistogram(0.02, 100))

			if mergedM.N != wholeM.N {
				t.Fatalf("k=%d trial=%d: N=%d, want %d", k, trial, mergedM.N, wholeM.N)
			}
			if relErr(mergedM.Mean, wholeM.Mean) > 1e-12 || relErr(mergedM.M2, wholeM.M2) > 1e-9 {
				t.Fatalf("k=%d trial=%d: merged (%v, %v) vs single-pass (%v, %v)",
					k, trial, mergedM.Mean, mergedM.M2, wholeM.Mean, wholeM.M2)
			}
			if mergedH.Total() != wholeH.Total() || mergedH.Overflow != wholeH.Overflow {
				t.Fatalf("k=%d trial=%d: total/overflow %d/%d, want %d/%d",
					k, trial, mergedH.Total(), mergedH.Overflow, wholeH.Total(), wholeH.Overflow)
			}
			for i := 0; i < wholeH.NumBins(); i++ {
				if mergedH.Count(i) != wholeH.Count(i) {
					t.Fatalf("k=%d trial=%d: bin %d count %d, want %d",
						k, trial, i, mergedH.Count(i), wholeH.Count(i))
				}
			}
		}
	}
}

// TestReservoirRandomPartitionExact pins the reservoir's exact regime
// under adversarial sharding: as long as the union fits the bound, a
// random partition merged in any shard order retains exactly the original
// multiset of observations, with the seen-count exact.
func TestReservoirRandomPartitionExact(t *testing.T) {
	xs := testStream(11, 80)
	const (
		k     = 7
		bound = 128
	)
	next := partitionRNG(42)
	parts := make([]*Reservoir, k)
	for i := range parts {
		parts[i] = newRes(bound)
	}
	for _, x := range xs {
		parts[next()%k].Observe(x)
	}
	merged := newRes(bound)
	for _, p := range parts {
		merged.Merge(p)
	}
	if !merged.Exact() || merged.seen != int64(len(xs)) {
		t.Fatalf("exact merge lost observations: seen=%d exact=%v, want %d exact",
			merged.seen, merged.Exact(), len(xs))
	}
	got := append([]float64(nil), merged.Items()...)
	want := append([]float64(nil), xs...)
	sort.Float64s(got)
	sort.Float64s(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained multiset differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestMomentsMergeCommutesApproximately: shard merge order must not move
// the merged statistics beyond float tolerance — the fleet absorbs worlds
// in a fixed world order, but the statistics themselves cannot hide a
// catastrophic cancellation that only one order exposes.
func TestMomentsMergeCommutesApproximately(t *testing.T) {
	xs := testStream(13, 10_000)
	const k = 8
	parts := make([]Moments, k)
	next := partitionRNG(99)
	for _, x := range xs {
		parts[next()%k].Observe(x)
	}
	var fwd, rev Moments
	for i := 0; i < k; i++ {
		fwd.Merge(parts[i])
		rev.Merge(parts[k-1-i])
	}
	if fwd.N != rev.N {
		t.Fatalf("N differs by merge order: %d vs %d", fwd.N, rev.N)
	}
	if relErr(fwd.Mean, rev.Mean) > 1e-12 || relErr(fwd.M2, rev.M2) > 1e-9 {
		t.Fatalf("merge order moved the moments: (%v, %v) vs (%v, %v)",
			fwd.Mean, fwd.M2, rev.Mean, rev.M2)
	}
}
