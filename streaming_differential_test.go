package repro_test

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/topo"

	_ "repro/internal/topo/scenarios"
)

// closeEnough compares two floats with a tight relative tolerance — the
// allowance for the streaming path's different floating-point
// associativity (Welford moments, Σc²-form dispersion).
func closeEnough(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return diff <= 1e-9*scale
}

// oracleRun is one world the measurement oracle checks: a retained run
// (nil arena) and the same run on the shared arena.
type oracleRun struct {
	name     string
	retained func() (*topo.ScenarioResult, error)
	onArena  func(a *exp.Arena) (*topo.ScenarioResult, error)
}

// TestStreamingMatchesBatch is the differential contract of the one
// measurement path: every registered scenario and Figures 2 and 3, run
// once with a nil arena (online analysis plus the retained trace), must
// report what the batch pipeline — analysis.AnalyzeTrace and
// SummarizeBursts, the CSV tools' analysis — computes from that very
// trace: exactly for everything integer-derived (N, histogram counts,
// clustering fractions, the arrival-ordered mean and so Lambda, the KS
// statistic while the reservoir holds the full trace, the burst
// structure), and within float tolerance for the two online moments (CoV,
// index of dispersion).
//
// Every world then runs again on ONE shared arena, where it must retain
// no trace and reproduce the retained run's report bit for bit — which
// also proves the scratch reset: state leaking from one run into the next
// would break the comparison for whichever world runs second.
func TestStreamingMatchesBatch(t *testing.T) {
	cfg := topo.ScenarioConfig{
		Seed:     11,
		Duration: 12 * sim.Second,
		Warmup:   3 * sim.Second,
	}
	names := topo.Names()
	if len(names) < 4 {
		t.Fatalf("registry has %d scenarios, want ≥ 4", len(names))
	}
	var runs []oracleRun
	for _, name := range names {
		sc, _ := topo.Lookup(name)
		runs = append(runs, oracleRun{
			name:     name,
			retained: func() (*topo.ScenarioResult, error) { return sc.RunIn(cfg, nil) },
			onArena:  func(a *exp.Arena) (*topo.ScenarioResult, error) { return sc.RunIn(cfg, a) },
		})
	}
	// The figure runners take their arena from the sweep; a one-replication
	// sweep replays the config's own seed.
	sweepOne := func(sw *core.ScenarioSweep, err error) (*topo.ScenarioResult, error) {
		if err != nil {
			return nil, err
		}
		return sw.Results[0], nil
	}
	fig2 := core.Fig2Config{Seed: 11, Flows: 8, Duration: 12 * sim.Second, Warmup: 3 * sim.Second}
	fig3 := core.Fig3Config{Seed: 11, FlowsPerClass: 2, Duration: 12 * sim.Second, Warmup: 3 * sim.Second}
	one := core.SweepOptions{Replications: 1, Workers: 1}
	runs = append(runs,
		oracleRun{
			name:     "figure2",
			retained: func() (*topo.ScenarioResult, error) { return core.RunFigure2(fig2) },
			onArena:  func(*exp.Arena) (*topo.ScenarioResult, error) { return sweepOne(core.SweepFigure2(fig2, one)) },
		},
		oracleRun{
			name:     "figure3",
			retained: func() (*topo.ScenarioResult, error) { return core.RunFigure3(fig3) },
			onArena:  func(*exp.Arena) (*topo.ScenarioResult, error) { return sweepOne(core.SweepFigure3(fig3, one)) },
		},
	)

	arena := exp.NewArena()
	for _, run := range runs {
		t.Run(run.name, func(t *testing.T) {
			res, err := run.retained()
			if err != nil {
				t.Fatal(err)
			}
			if res.Trace == nil || res.Trace.Len() != res.Drops {
				t.Fatal("nil-arena run did not retain its trace")
			}
			stream, err := run.onArena(arena)
			if err != nil {
				t.Fatal(err)
			}
			if stream.Trace != nil {
				t.Fatal("arena run retained a trace")
			}
			if stream.Drops != res.Drops || stream.Events != res.Events ||
				stream.Bursts != res.Bursts || !reflect.DeepEqual(stream.Report, res.Report) {
				t.Fatalf("arena run diverged from the nil-arena run: drops %d/%d events %d/%d",
					stream.Drops, res.Drops, stream.Events, res.Events)
			}

			batch, err := analysis.AnalyzeTrace(res.Trace, res.MeanRTT, analysis.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if want := analysis.SummarizeBursts(res.Trace.Events(), res.MeanRTT/4); res.Bursts != want {
				t.Fatalf("burst stats diverged:\nonline %+v\nbatch  %+v", res.Bursts, want)
			}

			sr, br := res.Report, batch
			if sr.N != br.N || sr.RTT != br.RTT {
				t.Fatalf("N/RTT diverged: %d/%v vs %d/%v", sr.N, sr.RTT, br.N, br.RTT)
			}
			if sr.Lambda != br.Lambda {
				t.Fatalf("Lambda %v != %v", sr.Lambda, br.Lambda)
			}
			if sr.FracBelow001 != br.FracBelow001 || sr.FracBelow025 != br.FracBelow025 ||
				sr.FracBelow1 != br.FracBelow1 {
				t.Fatalf("fractions diverged: %v/%v/%v vs %v/%v/%v",
					sr.FracBelow001, sr.FracBelow025, sr.FracBelow1,
					br.FracBelow001, br.FracBelow025, br.FracBelow1)
			}
			if sr.KSDistance != br.KSDistance || sr.RejectsPoisson != br.RejectsPoisson {
				t.Fatalf("KS diverged: %v/%v vs %v/%v",
					sr.KSDistance, sr.RejectsPoisson, br.KSDistance, br.RejectsPoisson)
			}
			if !closeEnough(sr.CoV, br.CoV) {
				t.Fatalf("CoV %v vs %v beyond tolerance", sr.CoV, br.CoV)
			}
			if !closeEnough(sr.IndexOfDispersion, br.IndexOfDispersion) {
				t.Fatalf("IoD %v vs %v beyond tolerance",
					sr.IndexOfDispersion, br.IndexOfDispersion)
			}

			if sr.Hist.NumBins() != br.Hist.NumBins() || sr.Hist.Total() != br.Hist.Total() ||
				sr.Hist.Overflow != br.Hist.Overflow {
				t.Fatalf("histogram shape diverged")
			}
			for i := 0; i < br.Hist.NumBins(); i++ {
				if sr.Hist.Count(i) != br.Hist.Count(i) {
					t.Fatalf("bin %d: %d != %d", i, sr.Hist.Count(i), br.Hist.Count(i))
				}
				if sr.PoissonPMF[i] != br.PoissonPMF[i] {
					t.Fatalf("poisson bin %d: %v != %v", i, sr.PoissonPMF[i], br.PoissonPMF[i])
				}
			}

			if len(sr.Intervals) != len(br.Intervals) {
				t.Fatalf("interval count %d != %d (reservoir overflowed?)",
					len(sr.Intervals), len(br.Intervals))
			}
			for i := range br.Intervals {
				if sr.Intervals[i] != br.Intervals[i] {
					t.Fatalf("interval %d: %v != %v", i, sr.Intervals[i], br.Intervals[i])
				}
			}
		})
	}
}
