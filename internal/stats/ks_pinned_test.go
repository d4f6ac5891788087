package stats

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lossmodel"
	"repro/internal/sim"
)

// ksPinnedSamples are the fixed shapes TestKSPinnedBits holds KSExponential
// to: Poisson intervals at three sizes, a slot-quantized Gilbert–Elliott
// trace whose intervals are mostly exact ties, and the degenerate samples
// (all equal, one and two values, one huge outlier, ±0 mixed in).
func ksPinnedSamples() map[string][]float64 {
	poisson := func(seed int64, n int) []float64 {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.ExpFloat64() * 0.005
		}
		return xs
	}
	// Gilbert–Elliott chain sampled once per 100 µs slot: the interval
	// between losses is a whole number of slots, in seconds.
	const slot = 100 * sim.Microsecond
	ge := lossmodel.NewGilbertElliott(lossmodel.GEParams{PGB: 0.02, PBG: 0.2, KBad: 0.8},
		sim.NewRand(sim.SubSeed(41, 0)))
	var bursty []float64
	var last sim.Time
	for at := sim.Time(0); len(bursty) < 50_000; {
		at = at.Add(slot)
		if ge.Lost() {
			bursty = append(bursty, at.Sub(last).Seconds())
			last = at
		}
	}
	outlier := poisson(3, 999)
	outlier = append(outlier[:500:500], append([]float64{1e12}, outlier[500:]...)...)
	return map[string][]float64{
		"poisson-50":     poisson(1, 50),
		"poisson-500":    poisson(2, 500),
		"poisson-200000": poisson(4, 200_000),
		"gilbert-ties":   bursty,
		"all-equal":      {0.25, 0.25, 0.25, 0.25, 0.25, 0.25, 0.25},
		"n1":             {0.3},
		"n2":             {0.7, 0.1},
		"outlier":        outlier,
		"signed-zeros":   {0, math.Copysign(0, -1), 1.5, math.Copysign(0, -1), 0.2, 0, 3, 0, math.Copysign(0, -1)},
	}
}

// TestKSPinnedBits holds KSExponential to the exact bits the sort-then-scan
// implementation produced on ksPinnedSamples (table captured at commit
// e9d0bcb, before the bucket-bound rewrite). Every analysis report prints
// this statistic, so a faster KS that moves one bit is a behaviour change.
func TestKSPinnedBits(t *testing.T) {
	want := map[string]uint64{
		"poisson-50":     0x3fbbbf3c63c93690,
		"poisson-500":    0x3f95b7f1348c60b8,
		"poisson-200000": 0x3f5691c1a1124200,
		"gilbert-ties":   0x3fe390f2646f00d9,
		"all-equal":      0x3fe43a54e4e98864,
		"n1":             0x3fe43a54e4e98864,
		"n2":             0x3fd4e0e340feefc8,
		"outlier":        0x3feff7ced910170f,
		"signed-zeros":   0x3fe5555555555555,
	}
	for name, xs := range ksPinnedSamples() {
		got := math.Float64bits(KSExponential(xs))
		if w, ok := want[name]; !ok || got != w {
			t.Errorf("%s (n=%d): got %#x, want %#x", name, len(xs), got, w)
		}
	}
}
