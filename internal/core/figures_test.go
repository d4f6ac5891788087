package core

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/planetlab"
	"repro/internal/sim"
)

// All scenario tests run scaled-down versions of the paper's setups: the
// shapes must hold at small scale even though the absolute statistics are
// noisier. Every test is t.Parallel(): each scenario is an independent
// simulated world, so the suite's wall clock is bounded by the slowest
// test on multi-core hardware.

func TestRunFigure2ShowsSubRTTBurstiness(t *testing.T) {
	t.Parallel()
	res, err := RunFigure2(Fig2Config{
		Seed:     1,
		Flows:    16,
		Duration: 15 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops < 20 {
		t.Fatalf("only %d drops", res.Drops)
	}
	r := res.Report
	// The paper's headline: >95% of losses within 0.01 RTT, and a process
	// far burstier than Poisson. At small scale we demand 80%/0.01 RTT, a
	// clearly super-exponential interval distribution (CoV ≫ 1; an
	// exponential has CoV = 1 at any rate), over-dispersed counts, and at
	// least as much smallest-bin mass as the matched Poisson.
	if r.FracBelow001 < 0.8 {
		t.Fatalf("frac<0.01RTT = %v; losses not clustered", r.FracBelow001)
	}
	if r.CoV < 2 {
		t.Fatalf("interval CoV = %v; not burstier than Poisson", r.CoV)
	}
	if r.IndexOfDispersion < 5 {
		t.Fatalf("IoD = %v", r.IndexOfDispersion)
	}
	// At very high loss rates both distributions concentrate in bin 0, so
	// only demand near-parity there; CoV and IoD carry the burstiness
	// distinction at any rate.
	if r.BurstinessVsPoisson() < 0.9 {
		t.Fatalf("smallest-bin mass far below Poisson: %v", r.BurstinessVsPoisson())
	}
	if res.Bursts.Bursts == 0 || res.Bursts.MeanSize < 1 {
		t.Fatalf("burst stats: %+v", res.Bursts)
	}
}

// TestRunFigure2Deterministic checks the two reproducibility contracts at
// once: the same config and seed always produce the same world, and a
// sweep's results are byte-identical no matter how many workers ran it.
func TestRunFigure2Deterministic(t *testing.T) {
	t.Parallel()
	cfg := Fig2Config{Seed: 5, Flows: 4, Duration: 6 * sim.Second, Warmup: sim.Second}
	opts := SweepOptions{Replications: 2}

	opts.Workers = 1
	seq, err := SweepFigure2(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = 4
	par, err := SweepFigure2(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}

	for k := range seq.Results {
		a, b := seq.Results[k], par.Results[k]
		if a.Drops != b.Drops || a.MeanRTT != b.MeanRTT {
			t.Fatalf("replication %d nondeterministic: %d/%v vs %d/%v",
				k, a.Drops, a.MeanRTT, b.Drops, b.MeanRTT)
		}
		// Sweeps retain no trace; the full report (histogram,
		// reservoir intervals, burst structure) must agree instead.
		if a.Trace != nil || b.Trace != nil {
			t.Fatalf("replication %d retained a trace on a sweep arena", k)
		}
		if !reflect.DeepEqual(a.Report, b.Report) || a.Bursts != b.Bursts {
			t.Fatalf("replication %d report diverges across worker counts", k)
		}
		// The rendered artifact — what a human or the paper comparison
		// reads — must be byte-identical too.
		var ra, rb bytes.Buffer
		if err := WritePDF(&ra, a.Report); err != nil {
			t.Fatal(err)
		}
		if err := WritePDF(&rb, b.Report); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
			t.Fatalf("replication %d rendered report diverges", k)
		}
	}
	if !reflect.DeepEqual(seq.Summary, par.Summary) {
		t.Fatalf("aggregate diverges: %+v vs %+v", seq.Summary, par.Summary)
	}
	if seq.Summary.Replications != 2 || seq.Summary.CoV.N != 2 {
		t.Fatalf("summary shape: %+v", seq.Summary)
	}
	if len(seq.Skipped) != 0 || len(seq.Seeds) != 2 {
		t.Fatalf("skips/seeds: %v / %v", seq.Skipped, seq.Seeds)
	}
	// Replication 0 replays the configured seed; replication 1 draws an
	// independent derived seed.
	if seq.Seeds[0] != cfg.Seed || seq.Seeds[1] == cfg.Seed {
		t.Fatalf("replication seeds wrong: %v", seq.Seeds)
	}
	// Replications must differ from each other (independent seeds), or the
	// sweep would be averaging one run with itself.
	if reflect.DeepEqual(seq.Results[0].Report, seq.Results[1].Report) {
		t.Fatal("replications identical; seed derivation broken")
	}
}

// TestFigure2StreamingMatchesBatch pins the figure runners' use of the
// one measurement path from inside core, where the arena entry point is
// directly reachable (the root TestStreamingMatchesBatch goes through a
// sweep): a nil-arena run retains its trace, an arena run does not, the
// two agree bit for bit, and the batch pipeline over the retained trace
// agrees with them — exactly for the integer-derived statistics and
// within float tolerance for the online moments.
func TestFigure2StreamingMatchesBatch(t *testing.T) {
	t.Parallel()
	cfg := Fig2Config{Seed: 3, Flows: 8, Duration: 10 * sim.Second, Warmup: 2 * sim.Second}
	retained, err := RunFigure2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := runFigure2(cfg, exp.NewArena())
	if err != nil {
		t.Fatal(err)
	}
	if stream.Trace != nil || retained.Trace == nil || retained.Trace.Len() != retained.Drops {
		t.Fatal("trace retention wrong")
	}
	if stream.Drops != retained.Drops || stream.Events != retained.Events ||
		stream.Forwarded != retained.Forwarded || stream.Bursts != retained.Bursts ||
		!reflect.DeepEqual(stream.Report, retained.Report) {
		t.Fatalf("arena run diverged from the nil-arena run:\narena %+v\nnil   %+v", stream, retained)
	}
	sr := retained.Report
	br, err := analysis.AnalyzeTrace(retained.Trace, retained.MeanRTT, analysis.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.N != br.N || sr.Lambda != br.Lambda || sr.KSDistance != br.KSDistance ||
		sr.FracBelow001 != br.FracBelow001 || sr.FracBelow1 != br.FracBelow1 {
		t.Fatalf("exact statistics diverged:\nonline %+v\nbatch  %+v", sr, br)
	}
	if diff := math.Abs(sr.CoV - br.CoV); diff > 1e-9*math.Max(1, br.CoV) {
		t.Fatalf("CoV %v vs %v", sr.CoV, br.CoV)
	}
	if diff := math.Abs(sr.IndexOfDispersion - br.IndexOfDispersion); diff > 1e-9*math.Max(1, br.IndexOfDispersion) {
		t.Fatalf("IoD %v vs %v", sr.IndexOfDispersion, br.IndexOfDispersion)
	}
}

func TestSweepFailsOnlyWhenAllReplicationsFail(t *testing.T) {
	t.Parallel()
	// One simulated second with a ten-second default warmup: every
	// replication records zero drops, so the sweep as a whole must error.
	_, err := SweepFigure2(Fig2Config{Seed: 1, Flows: 2, Duration: sim.Second},
		SweepOptions{Replications: 2, Workers: 2})
	if err == nil || !strings.Contains(err.Error(), "every replication failed") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunFigure3QuantizedTrace(t *testing.T) {
	t.Parallel()
	res, err := RunFigure3(Fig3Config{
		Seed:          2,
		FlowsPerClass: 2,
		Duration:      15 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops < 10 {
		t.Fatalf("only %d drops", res.Drops)
	}
	// Every recorded timestamp sits on the 1 ms grid.
	for _, e := range res.Trace.Events() {
		if int64(e.At)%int64(sim.Millisecond) != 0 {
			t.Fatalf("unquantized drop at %v", e.At)
		}
	}
	// Burstiness survives quantization (the paper: ≈80% under 0.01 RTT in
	// the emulation; we demand clustering under 0.25 RTT at small scale).
	if res.Report.FracBelow025 < 0.4 {
		t.Fatalf("frac<0.25RTT = %v", res.Report.FracBelow025)
	}
	if res.Report.CoV < 1.5 {
		t.Fatalf("CoV = %v", res.Report.CoV)
	}
}

func TestSweepFigure3Aggregates(t *testing.T) {
	t.Parallel()
	sweep, err := SweepFigure3(Fig3Config{
		Seed:          9,
		FlowsPerClass: 2,
		Duration:      10 * sim.Second,
		Warmup:        3 * sim.Second,
	}, SweepOptions{Replications: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sweep.Results) != 2 || sweep.Summary.Replications != 2 {
		t.Fatalf("sweep shape: %d results, %+v", len(sweep.Results), sweep.Summary)
	}
	if sweep.Summary.Losses.Mean < 2 {
		t.Fatalf("mean losses %v", sweep.Summary.Losses.Mean)
	}
	if sweep.Summary.CoV.Mean <= 0 {
		t.Fatalf("CoV aggregate: %+v", sweep.Summary.CoV)
	}
}

func TestRunFigure4CampaignShape(t *testing.T) {
	t.Parallel()
	cfg := Fig4Config{
		Seed:     3,
		Paths:    12,
		Duration: 20 * sim.Second,
		Workers:  4,
	}
	res, err := RunFigure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.PathsMeasured != 12 {
		t.Fatalf("measured %d paths", res.PathsMeasured)
	}
	if res.PathsValidated == 0 || res.PathsAnalyzed == 0 {
		t.Fatalf("validated=%d analyzed=%d", res.PathsValidated, res.PathsAnalyzed)
	}
	r := res.Report
	// Internet shape: substantial sub-RTT clustering, weaker than NS-2
	// (the paper: 40% < 0.01 RTT, 60% < 1 RTT), still ≫ Poisson in the
	// sub-RTT bins.
	if r.FracBelow1 < 0.3 {
		t.Fatalf("frac<1RTT = %v", r.FracBelow1)
	}
	if r.FracBelow001 >= r.FracBelow1 {
		t.Fatal("fraction ordering broken")
	}
	if r.BurstinessVsPoisson() < 2 {
		t.Fatalf("internet burstiness ratio = %v", r.BurstinessVsPoisson())
	}

	// Worker invariance: the sequential campaign renders the same merged
	// artifact byte for byte.
	cfg.Workers = 1
	seq, err := RunFigure4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := WritePDF(&a, res.Report); err != nil {
		t.Fatal(err)
	}
	if err := WritePDF(&b, seq.Report); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("figure 4 aggregate depends on worker count")
	}
	if res.PathsAnalyzed != seq.PathsAnalyzed || res.TotalLosses != seq.TotalLosses {
		t.Fatalf("campaign counters diverge: %+v vs %+v", res, seq)
	}
}

func TestRunFigure7PacingLoses(t *testing.T) {
	t.Parallel()
	res, err := RunFigure7(Fig7Config{
		Seed:          4,
		FlowsPerClass: 8,
		Duration:      15 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deficit <= 0.02 {
		t.Fatalf("pacing deficit = %.1f%%; paper observed ≈17%%", 100*res.Deficit)
	}
	if res.Deficit > 0.8 {
		t.Fatalf("pacing deficit implausibly large: %.1f%%", 100*res.Deficit)
	}
	// Mechanism check: per packet delivered, paced flows detect loss
	// events at least as often — the paper's explanation for the deficit.
	pacedRate := float64(res.PacedCongestionEvents) / float64(res.PacedTotalPkts)
	renoRate := float64(res.NewRenoCongestionEvents) / float64(res.NewRenoTotalPkts)
	if pacedRate < renoRate {
		t.Fatalf("paced per-packet event rate %.2e below newreno %.2e; mechanism broken",
			pacedRate, renoRate)
	}
	if len(res.PacedMbps) == 0 || len(res.NewRenoMbps) == 0 {
		t.Fatal("missing throughput series")
	}
	var buf bytes.Buffer
	if err := WriteFig7(&buf, res, sim.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "deficit") {
		t.Fatal("fig7 render missing header")
	}
}

func TestSweepFigure7DeficitEstimate(t *testing.T) {
	t.Parallel()
	cfg := Fig7Config{Seed: 10, FlowsPerClass: 2, Duration: 6 * sim.Second}
	seq, err := SweepFigure7(cfg, SweepOptions{Replications: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SweepFigure7(cfg, SweepOptions{Replications: 2, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("figure 7 sweep depends on worker count")
	}
	if len(seq.Results) != 2 || seq.Deficit.N != 2 {
		t.Fatalf("sweep shape: %d results, %+v", len(seq.Results), seq.Deficit)
	}
}

func TestRunFigure8LatencySurface(t *testing.T) {
	t.Parallel()
	cfg := Fig8Config{
		Seed:       5,
		TotalBytes: 8 << 20, // 8 MB keeps the test quick
		FlowCounts: []int{2, 8},
		RTTs:       []sim.Duration{10 * sim.Millisecond, 200 * sim.Millisecond},
		Runs:       3,
	}
	res := RunFigure8(cfg)
	if len(res.Cells) != 4 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.Mean < 1 {
			t.Fatalf("normalized latency < 1 at %+v", c)
		}
	}
	// Long-RTT transfers are relatively worse (paper: 11–50 s vs 5.39 s
	// bound at 200 ms).
	lo := res.Cell(10*sim.Millisecond, 2)
	hi := res.Cell(200*sim.Millisecond, 2)
	if lo == nil || hi == nil {
		t.Fatal("missing cells")
	}
	if hi.Mean <= lo.Mean {
		t.Fatalf("long-RTT not worse: %v vs %v", hi.Mean, lo.Mean)
	}
	var buf bytes.Buffer
	if err := WriteFig8(&buf, res); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(buf.String()), "\n")) != 5 {
		t.Fatalf("fig8 render:\n%s", buf.String())
	}
	if res.Cell(sim.Duration(1), 99) != nil {
		t.Fatal("bogus cell lookup should be nil")
	}
}

func TestRunFigure8WorkerInvariance(t *testing.T) {
	t.Parallel()
	cfg := Fig8Config{
		Seed:       6,
		TotalBytes: 2 << 20,
		FlowCounts: []int{2, 4},
		RTTs:       []sim.Duration{10 * sim.Millisecond, 50 * sim.Millisecond},
		Runs:       2,
	}
	cfg.Workers = 1
	seq := RunFigure8(cfg)
	cfg.Workers = 4
	par := RunFigure8(cfg)
	if !reflect.DeepEqual(seq.Cells, par.Cells) {
		t.Fatalf("latency surface depends on worker count:\n%+v\n%+v", seq.Cells, par.Cells)
	}
}

func TestRunTFRCCompetition(t *testing.T) {
	t.Parallel()
	res, err := RunTFRCCompetition(TFRCCompConfig{
		Seed:          6,
		FlowsPerClass: 4,
		Duration:      15 * sim.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The paper (citing Rhee & Xu): TFRC gets less than TCP.
	if res.Deficit <= 0 {
		t.Fatalf("TFRC beat NewReno: deficit = %.1f%%", 100*res.Deficit)
	}
	if res.TFRCLossRate <= 0 {
		t.Fatal("TFRC never measured loss")
	}
}

func TestRunECNCoverageOrdering(t *testing.T) {
	t.Parallel()
	cfg := ECNCoverageConfig{Seed: 7, Flows: 8, Duration: 10 * sim.Second}
	modes := []ECNMode{ModeDropTail, ModePersistentECN}
	results, err := RunECNComparison(cfg, modes, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("results = %d", len(results))
	}
	dt, pe := results[0], results[1]
	if dt.Mode != ModeDropTail || pe.Mode != ModePersistentECN {
		t.Fatalf("mode order broken: %v, %v", dt.Mode, pe.Mode)
	}
	// The paper's proposal: persistent ECN covers most flows each epoch;
	// DropTail covers few.
	if pe.CoverageFraction <= dt.CoverageFraction {
		t.Fatalf("persistent ECN coverage %.2f not above droptail %.2f",
			pe.CoverageFraction, dt.CoverageFraction)
	}
	if pe.CoverageFraction < 0.5 {
		t.Fatalf("persistent ECN coverage only %.2f", pe.CoverageFraction)
	}
	if pe.AggregatePkts < dt.AggregatePkts/2 {
		t.Fatal("persistent ECN collapsed throughput")
	}
	if pe.FairnessIndex < dt.FairnessIndex-0.1 {
		t.Fatalf("persistent ECN hurt fairness: %.3f vs %.3f",
			pe.FairnessIndex, dt.FairnessIndex)
	}
	// The comparison must match standalone runs exactly — it only
	// parallelizes, never perturbs.
	solo, err := RunECNCoverage(cfg, ModePersistentECN)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(solo, pe) {
		t.Fatalf("comparison diverges from standalone run:\n%+v\n%+v", solo, pe)
	}
}

func TestWritePDFAndASCII(t *testing.T) {
	t.Parallel()
	res, err := RunFigure2(Fig2Config{Seed: 8, Flows: 4, Duration: 10 * sim.Second,
		Warmup: sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePDF(&buf, res.Report); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "frac<0.01RTT") || !strings.Contains(out, "poisson_pdf") {
		t.Fatalf("pdf render:\n%s", out)
	}
	// 100 bins + 2 header lines.
	if got := len(strings.Split(strings.TrimSpace(out), "\n")); got != 102 {
		t.Fatalf("pdf rows = %d", got)
	}
	buf.Reset()
	if err := WriteASCIIPDF(&buf, res.Report, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "*") || !strings.Contains(buf.String(), "o") {
		t.Fatalf("ascii render:\n%s", buf.String())
	}
	buf.Reset()
	if err := WriteASCIIPDF(&buf, res.Report, 0); err != nil { // default rows
		t.Fatal(err)
	}
}

func TestWriteSitesTable(t *testing.T) {
	t.Parallel()
	var buf bytes.Buffer
	if err := WriteSites(&buf, planetlab.Sites()); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(buf.String()), "\n")); got != 27 {
		t.Fatalf("site rows = %d", got)
	}
}
