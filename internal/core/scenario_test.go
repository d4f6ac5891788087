package core

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// quickScenarioCfg keeps per-scenario test runs in the hundreds of
// milliseconds while still producing enough drops to analyze.
var quickScenarioCfg = topo.ScenarioConfig{
	Seed:     21,
	Duration: 8 * sim.Second,
	Warmup:   2 * sim.Second,
}

func TestScenarioCatalogRegistered(t *testing.T) {
	t.Parallel()
	names := topo.Names()
	for _, want := range []string{
		"dumbbell", "parking-lot", "access-tree", "hetero-mesh",
		"wifi-gilbert", "cellular-trace", "flaky-backbone",
		"gcc-vs-tcp-wifi", "gcc-cellular",
	} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("scenario %q not registered (have %v)", want, names)
		}
	}
	for _, sc := range topo.Scenarios() {
		if sc.Description == "" || sc.Topology == "" {
			t.Errorf("scenario %q missing catalog metadata", sc.Name)
		}
	}
}

// TestScenariosBurstyAndDeterministic runs every registered scenario and
// asserts (a) the paper's qualitative result — sub-RTT clustering, CoV ≫ 1,
// Poisson rejected — holds on every topology, and (b) a replicated sweep
// is bit-identical no matter how many workers ran it, scenario by scenario.
func TestScenariosBurstyAndDeterministic(t *testing.T) {
	t.Parallel()
	for _, sc := range topo.Scenarios() {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			t.Parallel()
			seq, err := SweepScenario(sc.Name, quickScenarioCfg,
				SweepOptions{Replications: 2, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			par, err := SweepScenario(sc.Name, quickScenarioCfg,
				SweepOptions{Replications: 2, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}

			for k := range seq.Results {
				a, b := seq.Results[k], par.Results[k]
				// Streaming sweeps analyze online and retain no trace; the
				// full report and burst structure must match instead.
				if a.Trace != nil || b.Trace != nil {
					t.Fatalf("replication %d retained a trace in streaming mode", k)
				}
				if !reflect.DeepEqual(a.Report, b.Report) || a.Bursts != b.Bursts {
					t.Fatalf("replication %d report depends on worker count", k)
				}
				var ra, rb bytes.Buffer
				if err := WritePDF(&ra, a.Report); err != nil {
					t.Fatal(err)
				}
				if err := WritePDF(&rb, b.Report); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ra.Bytes(), rb.Bytes()) {
					t.Fatalf("replication %d rendered report depends on worker count", k)
				}
			}
			if !reflect.DeepEqual(seq.Summary, par.Summary) {
				t.Fatalf("aggregate depends on worker count: %+v vs %+v",
					seq.Summary, par.Summary)
			}

			// The paper's burstiness shape on this topology.
			r := seq.Results[0].Report
			if seq.Results[0].Drops < 20 {
				t.Fatalf("only %d drops", seq.Results[0].Drops)
			}
			if r.FracBelow1 < 0.5 {
				t.Fatalf("frac<1RTT = %v; losses not clustered", r.FracBelow1)
			}
			if r.CoV < 2 {
				t.Fatalf("CoV = %v; not burstier than Poisson", r.CoV)
			}
			if !r.RejectsPoisson {
				t.Fatal("KS test failed to reject Poisson")
			}
		})
	}
}

func TestRunScenarioUnknownName(t *testing.T) {
	t.Parallel()
	_, err := SweepScenario("no-such-topology", quickScenarioCfg, SweepOptions{Replications: 1})
	if err == nil || !strings.Contains(err.Error(), "registered:") {
		t.Fatalf("err = %v; want the catalog listing", err)
	}
	if !strings.Contains(err.Error(), "parking-lot") {
		t.Fatalf("err %v does not name the available scenarios", err)
	}
}
