package core

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// folder FNV-folds 64-bit words into one hash.
type folder struct {
	h   hash.Hash64
	buf [8]byte
}

func newFolder() *folder { return &folder{h: fnv.New64a()} }

func (f *folder) fold(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(f.buf[:], v)
		f.h.Write(f.buf[:])
	}
}

func (f *folder) floats(xs ...float64) {
	for _, x := range xs {
		f.fold(math.Float64bits(x))
	}
}

// scenario folds every field of a loss-trace result but Flows and
// Analyzer: the retained trace event by event, the counters, every float
// of the report and every histogram count, and the burst statistics.
// Flows is left out on purpose — it counts traffic sources, which the
// figure runners did not report before they shared the catalog's
// dumbbell runner — and Analyzer is arena scratch.
func (f *folder) scenario(res *ScenarioResult) {
	for _, e := range res.Trace.Events() {
		f.fold(uint64(e.At), uint64(e.Flow), uint64(e.Seq), uint64(e.Size))
	}
	f.fold(uint64(res.Drops), res.Events, res.Forwarded, res.AmbiguousTies, uint64(res.MeanRTT))
	r := res.Report
	f.fold(uint64(r.N), uint64(r.RTT))
	f.floats(r.Intervals...)
	f.floats(r.Lambda)
	f.floats(r.PoissonPMF...)
	f.floats(r.FracBelow001, r.FracBelow025, r.FracBelow1)
	f.floats(r.IndexOfDispersion, r.CoV, r.KSDistance)
	if r.RejectsPoisson {
		f.fold(1)
	}
	f.floats(r.Hist.BinWidth)
	for i := 0; i < r.Hist.NumBins(); i++ {
		f.fold(uint64(r.Hist.Count(i)))
	}
	f.fold(uint64(r.Hist.Total()), uint64(r.Hist.Overflow))
	b := res.Bursts
	f.fold(uint64(b.Bursts), uint64(b.MaxSize))
	f.floats(b.MeanSize, b.MeanFlows, b.SingletonFrac)
	if res.Transfers != nil {
		f.fold(1)
	}
}

// result folds a loss-trace run, or passes its error on.
func (f *folder) result(res *ScenarioResult, err error) error {
	if err != nil {
		return err
	}
	f.scenario(res)
	return nil
}

// TestDumbbellFiguresPinned holds the runs of the one dumbbell runner —
// Figures 2 (DropTail and RED), 3 and 7 and the TFRC and persistent-ECN
// extensions — to exact bits at reduced scale (hashes
// captured at commit 3999eba, before the five runs shared one runner).
// The scheduler breaks same-time ties by arming order, so the hashes also
// pin the order in which each run builds its world and arms its starts.
// Seed 1 runs each figure's defaults; seed 7 also moves every knob a
// caller can still set.
func TestDumbbellFiguresPinned(t *testing.T) {
	for _, r := range dumbbellRuns() {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 7} {
				f := newFolder()
				if err := r.fold(f, seed); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if got := f.h.Sum64(); got != r.want[seed] {
					t.Errorf("%s seed %d: hash %#016x, want %#016x", r.name, seed, got, r.want[seed])
				}
			}
		})
	}
	// Figure 2 at 16 flows is the registered dumbbell at its nominal
	// parameters: the same trace, the same event and forwarding counts,
	// the same scheduler ties and the same report bits.
	t.Run("figure2-is-dumbbell", func(t *testing.T) {
		t.Parallel()
		for _, seed := range []int64{1, 7} {
			fig, err := RunFigure2(Fig2Config{Seed: seed, Flows: 16,
				Duration: 8 * sim.Second, Warmup: 2 * sim.Second})
			if err != nil {
				t.Fatal(err)
			}
			dumbbell, _ := topo.Lookup("dumbbell")
			sc, err := dumbbell.RunIn(topo.ScenarioConfig{Seed: seed,
				Duration: 8 * sim.Second, Warmup: 2 * sim.Second}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(fig.Trace.Events(), sc.Trace.Events()) ||
				fig.Events != sc.Events || fig.Forwarded != sc.Forwarded ||
				fig.AmbiguousTies != sc.AmbiguousTies || fig.MeanRTT != sc.MeanRTT {
				t.Fatalf("seed %d: figure 2 (%d drops, %d events, %d forwarded, %d ties) "+
					"is not the dumbbell (%d, %d, %d, %d)", seed, fig.Drops, fig.Events,
					fig.Forwarded, fig.AmbiguousTies, sc.Drops, sc.Events, sc.Forwarded, sc.AmbiguousTies)
			}
			a, b := newFolder(), newFolder()
			a.scenario(fig)
			b.scenario(sc)
			if a.h.Sum64() != b.h.Sum64() {
				t.Fatalf("seed %d: report bits differ", seed)
			}
		}
	})
}

// dumbbellRun is one reduced-scale run of the dumbbell runner: fold hashes
// its result at a seed, and want holds the pinned hashes. Seed 7 moves
// every knob the run's config still has; any other seed runs the defaults.
type dumbbellRun struct {
	name string
	fold func(f *folder, seed int64) error
	want map[int64]uint64
}

func dumbbellRuns() []dumbbellRun {
	return []dumbbellRun{
		{"figure2", func(f *folder, seed int64) error {
			cfg := Fig2Config{Seed: seed, Flows: 8, Duration: 8 * sim.Second, Warmup: 2 * sim.Second}
			if seed == 7 {
				cfg.Flows, cfg.BufferBDPFrac, cfg.NoiseFraction = 5, 0.25, 0.2
			}
			return f.result(RunFigure2(cfg))
		}, map[int64]uint64{1: 0x7497f488440bddd4, 7: 0x50a962f21a924773}},
		{"figure2-red", func(f *folder, seed int64) error {
			return f.result(RunFigure2(Fig2Config{Seed: seed, Flows: 8, RED: true,
				Duration: 8 * sim.Second, Warmup: 2 * sim.Second}))
		}, map[int64]uint64{1: 0xce488817ef03db11, 7: 0x8453a0f6f494f2b5}},
		{"figure3", func(f *folder, seed int64) error {
			cfg := Fig3Config{Seed: seed, FlowsPerClass: 2, Duration: 8 * sim.Second, Warmup: 2 * sim.Second}
			if seed == 7 {
				cfg.BufferBDPFrac, cfg.NoiseFraction, cfg.ProcNoiseMax = 1, 0.3, 30*sim.Microsecond
			}
			return f.result(RunFigure3(cfg))
		}, map[int64]uint64{1: 0x74488147f0fec111, 7: 0x8a120cd68683f659}},
		{"figure7", func(f *folder, seed int64) error {
			cfg := Fig7Config{Seed: seed, FlowsPerClass: 4, Duration: 6 * sim.Second}
			if seed == 7 {
				// An odd pair count and an odd-nanosecond RTT: the start
				// offsets and the halved access delays both round.
				cfg.FlowsPerClass, cfg.RTT, cfg.PaceQuantum = 3, 47*sim.Millisecond+1, 2
			}
			res, err := RunFigure7(cfg)
			if err != nil {
				return err
			}
			f.floats(res.PacedMbps...)
			f.floats(res.NewRenoMbps...)
			f.fold(uint64(res.PacedTotalPkts), uint64(res.NewRenoTotalPkts),
				res.PacedCongestionEvents, res.NewRenoCongestionEvents, res.Events)
			f.floats(res.Deficit)
			return nil
		}, map[int64]uint64{1: 0xb3d025a9c76a5481, 7: 0x6c90c0e1f980c075}},
		{"tfrc", func(f *folder, seed int64) error {
			cfg := TFRCCompConfig{Seed: seed, FlowsPerClass: 4, Duration: 8 * sim.Second}
			if seed == 7 {
				cfg.FlowsPerClass = 3
			}
			res, err := runTFRCCompetition(cfg, nil)
			if err != nil {
				return err
			}
			f.fold(res.TFRCBytes, res.NewRenoBytes, res.Events)
			f.floats(res.TFRCLossRate, res.Deficit)
			return nil
		}, map[int64]uint64{1: 0x864fac7d66f23bb4, 7: 0x319f282707334617}},
		{"ecn", func(f *folder, seed int64) error {
			for _, mode := range []ECNMode{ModeDropTail, ModeRedECN, ModePersistentECN} {
				cfg := ECNCoverageConfig{Seed: seed, Flows: 8, Duration: 5 * sim.Second}
				if seed == 7 {
					cfg.Flows = 5
				}
				res, err := runECNCoverage(cfg, mode, nil)
				if err != nil {
					return err
				}
				f.fold(uint64(res.Mode), uint64(res.Epochs), uint64(res.AggregatePkts), res.Events)
				f.floats(res.FlowsSignaledPerEpoch, res.CoverageFraction, res.FairnessIndex)
			}
			return nil
		}, map[int64]uint64{1: 0xffecff52f0d1bd1a, 7: 0x32b3170162998bf9}},
	}
}
