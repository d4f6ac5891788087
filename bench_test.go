// Package repro's root benchmarks run each paper artifact and ablation at
// reduced scale and report its headline quantity as a custom metric. They
// are developer tools: `paperexp` regenerates the artifacts (see
// EXPERIMENTS.md's per-artifact index), the one benchmark in bench/
// measures the engine's wall clock and allocation volume (see
// bench/README.md), and TestSteadyStateZeroAllocs gates the steady-state
// 0 allocs/op contracts.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/lossmodel"
	"repro/internal/planetlab"
	"repro/internal/sim"
)

// benchSeed seeds every benchmark world. It is a constant, not the
// iteration index, so each op simulates the same world: ns/op means
// something at any -benchtime, and the custom metrics (ReportMetric keeps
// the last iteration's) do not depend on b.N.
const benchSeed = 1

// BenchmarkTable1Sites regenerates Table 1 (the 26-site catalogue) and the
// 650-path mesh derivation.
func BenchmarkTable1Sites(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mesh := planetlab.NewMesh(planetlab.MeshConfig{Seed: 1})
		if len(mesh.Sites) != 26 {
			b.Fatal("bad mesh")
		}
		if got := len(mesh.AllRTTs()); got != 650 {
			b.Fatalf("paths = %d", got)
		}
	}
}

// BenchmarkFigure2 regenerates the NS-2 inter-loss PDF scenario. Metrics:
// frac001 (fraction of intervals < 0.01 RTT; paper: >0.95) and cov
// (interval coefficient of variation; Poisson = 1).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunFigure2(core.Fig2Config{
			Seed:     benchSeed,
			Flows:    16,
			Duration: 30 * sim.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.FracBelow001, "frac001")
		b.ReportMetric(res.Report.CoV, "cov")
	}
}

// BenchmarkFigure3 regenerates the Dummynet scenario (processing noise +
// 1 ms clock). Same metrics as Figure 2; the paper reports ≈80% under
// 0.01 RTT here.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunFigure3(core.Fig3Config{
			Seed:     benchSeed,
			Duration: 30 * sim.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.FracBelow001, "frac001")
		b.ReportMetric(res.Report.CoV, "cov")
	}
}

// BenchmarkFigure4 regenerates the PlanetLab campaign at reduced scale.
// Metrics: frac001 and frac1 (paper: ≈0.40 and ≈0.60).
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunFigure4(core.Fig4Config{
			Seed:     benchSeed,
			Paths:    16,
			Duration: 30 * sim.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Report.FracBelow001, "frac001")
		b.ReportMetric(res.Report.FracBelow1, "frac1")
	}
}

// BenchmarkEq12Table regenerates the loss-visibility table validating
// Equations 1 and 2 (the model behind Figures 5/6). Metric: the
// rate/window visibility ratio at M=8 drops (paper: ≫1).
func BenchmarkEq12Table(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := core.VisibilityTable(16, 10, []int{1, 2, 4, 8, 16, 32, 64, 128},
			1000, benchSeed)
		if len(rows) != 8 {
			b.Fatal("bad table")
		}
		m8 := rows[3]
		b.ReportMetric(m8.EmpiricalRate/m8.EmpiricalWin, "visibility_ratio_m8")
	}
}

// BenchmarkFigure7 regenerates the pacing-vs-NewReno competition.
// Metric: deficit (paper: ≈0.17; our simulator exaggerates the effect —
// see EXPERIMENTS.md).
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunFigure7(core.Fig7Config{
			Seed:          benchSeed,
			FlowsPerClass: 16,
			Duration:      30 * sim.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Deficit, "deficit")
	}
}

// BenchmarkFigure8 regenerates the parallel-transfer latency surface at
// reduced volume. Metrics: normalized latency at the paper's extremes.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := core.RunFigure8(core.Fig8Config{
			Seed:       benchSeed,
			TotalBytes: 16 << 20,
			FlowCounts: []int{2, 4, 8, 16, 32},
			RTTs: []sim.Duration{2 * sim.Millisecond, 10 * sim.Millisecond,
				50 * sim.Millisecond, 200 * sim.Millisecond},
			Runs: 3,
		})
		lo := res.Cell(2*sim.Millisecond, 32)
		hi := res.Cell(200*sim.Millisecond, 4)
		if lo == nil || hi == nil {
			b.Fatal("missing cells")
		}
		b.ReportMetric(lo.Mean, "norm_latency_2ms_32f")
		b.ReportMetric(hi.Mean, "norm_latency_200ms_4f")
	}
}

// BenchmarkTFRCCompetition regenerates the §4.1 TFRC-vs-TCP deficit.
func BenchmarkTFRCCompetition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.RunTFRCCompetition(core.TFRCCompConfig{
			Seed:     benchSeed,
			Duration: 30 * sim.Second,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Deficit, "deficit")
	}
}

// BenchmarkECNCoverage regenerates the §5 extension comparison. Metric:
// coverage under the paper's persistent-ECN proposal minus DropTail.
func BenchmarkECNCoverage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.ECNCoverageConfig{Seed: benchSeed, Duration: 15 * sim.Second}
		dt, err := core.RunECNCoverage(cfg, core.ModeDropTail)
		if err != nil {
			b.Fatal(err)
		}
		pe, err := core.RunECNCoverage(cfg, core.ModePersistentECN)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dt.CoverageFraction, "coverage_droptail")
		b.ReportMetric(pe.CoverageFraction, "coverage_persistent")
	}
}

// --- Ablations (EXPERIMENTS.md lists each with its expectation) ---

// BenchmarkAblationREDvsDropTail: RED should collapse the burstiness
// (lower CoV) relative to DropTail, the paper's §5 remedy.
func BenchmarkAblationREDvsDropTail(b *testing.B) {
	for i := 0; i < b.N; i++ {
		base := core.Fig2Config{Seed: benchSeed, Flows: 16, Duration: 30 * sim.Second}
		dt, err := core.RunFigure2(base)
		if err != nil {
			b.Fatal(err)
		}
		base.RED = true
		red, err := core.RunFigure2(base)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(dt.Report.CoV, "cov_droptail")
		b.ReportMetric(red.Report.CoV, "cov_red")
	}
}

// BenchmarkAblationBufferSweep: burst length scales with buffer size
// (paper sweeps 1/8–2 BDP).
func BenchmarkAblationBufferSweep(b *testing.B) {
	fracs := []float64{0.125, 0.5, 2.0}
	for i := 0; i < b.N; i++ {
		for _, f := range fracs {
			res, err := core.RunFigure2(core.Fig2Config{
				Seed:          benchSeed,
				Flows:         16,
				BufferBDPFrac: f,
				Duration:      30 * sim.Second,
			})
			if err != nil {
				b.Fatal(err)
			}
			switch f {
			case 0.125:
				b.ReportMetric(res.Bursts.MeanSize, "burst_bdp8th")
			case 0.5:
				b.ReportMetric(res.Bursts.MeanSize, "burst_bdphalf")
			case 2.0:
				b.ReportMetric(res.Bursts.MeanSize, "burst_bdp2x")
			}
		}
	}
}

// BenchmarkAblationPacingQuantum: pacing in bursts (quantum 4) moves the
// rate-based flows back toward window-like sub-RTT behaviour, so the
// competition deficit should not grow relative to per-packet pacing.
func BenchmarkAblationPacingQuantum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, q := range []int{1, 4} {
			res, err := core.RunFigure7(core.Fig7Config{
				Seed:          benchSeed,
				FlowsPerClass: 8,
				Duration:      20 * sim.Second,
				PaceQuantum:   q,
			})
			if err != nil {
				b.Fatal(err)
			}
			if q == 1 {
				b.ReportMetric(res.Deficit, "deficit_q1")
			} else {
				b.ReportMetric(res.Deficit, "deficit_q4")
			}
		}
	}
}

// BenchmarkAblationGEDwell: the Gilbert–Elliott bad-state dwell relative
// to the probe interval drives the measured clustering in the PlanetLab
// model — longer dwell, more back-to-back losses.
func BenchmarkAblationGEDwell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, pbg := range []float64{0.5, 0.05} {
			rng := sim.NewRand(benchSeed)
			ge := lossmodel.NewGilbertElliott(lossmodel.GEParams{
				PGB: 0.002, PBG: pbg, KGood: 0, KBad: 1,
			}, rng)
			seq := lossmodel.Generate(ge, 200000)
			bursts := lossmodel.BurstLengths(seq)
			var mean float64
			for _, x := range bursts {
				mean += float64(x)
			}
			if len(bursts) > 0 {
				mean /= float64(len(bursts))
			}
			if pbg == 0.5 {
				b.ReportMetric(mean, "burstlen_shortdwell")
			} else {
				b.ReportMetric(mean, "burstlen_longdwell")
			}
		}
	}
}
