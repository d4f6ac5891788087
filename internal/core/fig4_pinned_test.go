package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestFigure4Pinned holds the quick-scale Figure 4 campaign (paperexp -fig 4
// -quick) to exact bits: the path counts, the loss and event totals, every
// float of the merged report and every histogram count. The campaign fans
// its paths out over the worker pool, so the pin must hold for any
// GOMAXPROCS. Without the event total the fold is that of the earlier
// prober that armed a delivery event per surviving probe.
func TestFigure4Pinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want uint64
	}{{1, 0x4decb289f7d3acec}, {7, 0x46ba716d1f602db8}} {
		res, err := RunFigure4(Fig4Config{Seed: c.seed, Paths: 12, Duration: 30 * sim.Second})
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		fold := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		floats := func(xs ...float64) {
			for _, x := range xs {
				fold(math.Float64bits(x))
			}
		}
		fold(uint64(res.PathsMeasured))
		fold(uint64(res.PathsValidated))
		fold(uint64(res.PathsAnalyzed))
		fold(uint64(res.TotalLosses))
		fold(res.Events)
		r := res.Report
		fold(uint64(r.N))
		fold(uint64(r.RTT))
		floats(r.Intervals...)
		floats(r.Lambda)
		floats(r.PoissonPMF...)
		floats(r.FracBelow001, r.FracBelow025, r.FracBelow1)
		floats(r.IndexOfDispersion, r.CoV, r.KSDistance)
		if r.RejectsPoisson {
			fold(1)
		}
		floats(r.Hist.BinWidth)
		for i := 0; i < r.Hist.NumBins(); i++ {
			fold(uint64(r.Hist.Count(i)))
		}
		fold(uint64(r.Hist.Total()))
		fold(uint64(r.Hist.Overflow))
		if got := h.Sum64(); got != c.want {
			t.Errorf("seed %d: hash %#016x, want %#016x (paths %d/%d/%d, losses %d, events %d)",
				c.seed, got, c.want, res.PathsMeasured, res.PathsValidated,
				res.PathsAnalyzed, res.TotalLosses, res.Events)
		}
	}
}
