package stats

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestKSExponentialAcceptsExponentialSample(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = rng.ExpFloat64() * 3
	}
	d := KSExponential(xs)
	if d > KSCriticalValue(len(xs), 0.05) {
		t.Fatalf("true exponential rejected: D=%v crit=%v",
			d, KSCriticalValue(len(xs), 0.05))
	}
}

func TestKSExponentialRejectsClusteredSample(t *testing.T) {
	// Bimodal: 90% tiny intervals, 10% huge — a bursty loss process.
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 2000)
	for i := range xs {
		if rng.Float64() < 0.9 {
			xs[i] = 0.001
		} else {
			xs[i] = 10
		}
	}
	if KSExponential(xs) <= KSCriticalValue(len(xs), 0.05) {
		t.Fatalf("clustered sample accepted as exponential: D=%v", KSExponential(xs))
	}
	if KSExponential(xs) < 0.3 {
		t.Fatalf("D=%v too small for 90%% clustering", KSExponential(xs))
	}
}

func TestKSExponentialRejectsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 3000)
	for i := range xs {
		xs[i] = rng.Float64() // uniform[0,1) is not exponential
	}
	if KSExponential(xs) <= KSCriticalValue(len(xs), 0.05) {
		t.Fatal("uniform accepted as exponential")
	}
}

func TestKSEdgeCases(t *testing.T) {
	if KSExponential(nil) != 0 {
		t.Fatal("empty sample D != 0")
	}
	if KSExponential([]float64{0, 0, 0}) != 1 {
		t.Fatal("zero-mean sample should give D=1")
	}
	if KSCriticalValue(0, 0.05) != 1 {
		t.Fatal("n=0 critical value")
	}
	if KSCriticalValue(100, 0.01) <= KSCriticalValue(100, 0.05) {
		t.Fatal("stricter alpha must have larger critical value")
	}
	// Input must not be reordered.
	xs := []float64{3, 1, 2}
	KSExponential(xs)
	if xs[0] != 3 {
		t.Fatal("KS mutated input")
	}
}

// ksExponentialOracle is the sort-then-scan KSExponential that the
// bucket-bound implementation replaced: sort a copy, then fold both
// candidates of every element. KSExponential must equal it bit for bit.
func ksExponentialOracle(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	mean := Mean(xs)
	if mean <= 0 {
		return 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := float64(len(s))
	var d float64
	for i, x := range s {
		f := 1 - math.Exp(-x/mean)
		lo := float64(i) / n
		hi := float64(i+1) / n
		if diff := math.Abs(f - lo); diff > d {
			d = diff
		}
		if diff := math.Abs(f - hi); diff > d {
			d = diff
		}
	}
	return d
}

// checkKSOracle compares KSExponential and KSExponentialInto over the
// shared scratch s with the oracle, bit for bit.
func checkKSOracle(t *testing.T, what string, xs []float64, s *KSScratch) {
	t.Helper()
	want := math.Float64bits(ksExponentialOracle(xs))
	if got := math.Float64bits(KSExponential(xs)); got != want {
		t.Fatalf("%s (n=%d): KSExponential %#x, oracle %#x", what, len(xs), got, want)
	}
	if got := math.Float64bits(KSExponentialInto(xs, s)); got != want {
		t.Fatalf("%s (n=%d): KSExponentialInto %#x, oracle %#x", what, len(xs), got, want)
	}
}

// TestKSExponentialMatchesOracle runs random samples of the shapes loss
// intervals take — exponential, slot-quantized with heavy ties, clustered,
// uniform, and exponential with a far outlier — at sizes from 1 to 5,000
// through both entry points, reusing one scratch so it shrinks and grows.
func TestKSExponentialMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []struct {
		name string
		draw func() float64
	}{
		{"exponential", func() float64 { return rng.ExpFloat64() * 0.02 }},
		{"ties", func() float64 { return math.Ceil(rng.ExpFloat64()*3) * 1e-4 }},
		{"clustered", func() float64 {
			if rng.Float64() < 0.9 {
				return rng.ExpFloat64() * 1e-5
			}
			return rng.ExpFloat64() * 10
		}},
		{"uniform", rng.Float64},
		{"outlier", func() float64 {
			if rng.Intn(500) == 0 {
				return 1e9
			}
			return rng.ExpFloat64()
		}},
	}
	var s KSScratch
	for i := 0; i < 3000; i++ {
		sh := shapes[i%len(shapes)]
		xs := make([]float64, 1+rng.Intn(5000>>rng.Intn(8)))
		for j := range xs {
			xs[j] = sh.draw()
		}
		checkKSOracle(t, sh.name, xs, &s)
	}
}

// ksFuzzSample decodes bytes into a sample that leans on what breaks an
// order-based shortcut: exact duplicates, ±0, negatives, ±Inf and NaN,
// slot-quantized ties and arbitrary float bits.
func ksFuzzSample(in []byte) []float64 {
	var xs []float64
	for len(in) > 0 {
		op := in[0]
		in = in[1:]
		var x float64
		switch op % 16 {
		case 0:
			x = 0
		case 1:
			x = math.Copysign(0, -1)
		case 2:
			x = math.Inf(1)
		case 3:
			x = math.Inf(-1)
		case 4:
			x = math.NaN()
		case 5, 6, 7:
			if len(xs) > 0 {
				x = xs[len(xs)-1]
			}
		case 8, 9, 10:
			x = float64(op>>4) * 1e-4
		case 11:
			x = -float64(op>>4) * 1e-4
		case 12:
			if len(in) < 8 {
				return xs
			}
			x = math.Float64frombits(binary.LittleEndian.Uint64(in))
			in = in[8:]
		default:
			if len(in) < 1 {
				return xs
			}
			x = math.Exp2(float64(in[0])/8 - 16)
			in = in[1:]
		}
		xs = append(xs, x)
	}
	return xs
}

func FuzzKSExponential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x18, 0x05, 0x28, 0x38, 0x06, 0x0d, 0x40})
	f.Add([]byte{0x00, 0x01, 0x00, 0x0d, 0x80, 0x01, 0x05})
	f.Add([]byte{0x0d, 0x10, 0x0d, 0x90, 0x0d, 0xf0, 0x02, 0x0d, 0x20})
	f.Add([]byte{0x0d, 0x10, 0x0b, 0x0d, 0x30, 0x04})
	f.Add([]byte{0x0c, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 0x0d, 0x01})
	f.Add(append([]byte{0x0c}, make([]byte, 8)...))
	long := make([]byte, 0, 600)
	for i := 0; i < 200; i++ {
		long = append(long, 0x0d, byte(i*37), 0x08|byte(i%5)<<4)
	}
	f.Add(long)
	var s KSScratch
	f.Fuzz(func(t *testing.T, in []byte) {
		checkKSOracle(t, "fuzz", ksFuzzSample(in), &s)
	})
}

// BenchmarkKSExponential times the statistic on the 200,000-interval
// Poisson sample and the tie-heavy Gilbert–Elliott trace of
// TestKSPinnedBits, over one warmed scratch.
func BenchmarkKSExponential(b *testing.B) {
	samples := ksPinnedSamples()
	for _, name := range []string{"poisson-200000", "gilbert-ties"} {
		xs := samples[name]
		b.Run(name, func(b *testing.B) {
			var s KSScratch
			for b.Loop() {
				KSExponentialInto(xs, &s)
			}
		})
	}
}
