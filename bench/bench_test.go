package main

import (
	"bytes"
	"encoding/json"
	"os"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkFile mirrors the keys of BENCHMARK.json this test reads.
type benchmarkFile struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name, Unit, Better string
	Bound              float64
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func names(ds []declared) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// tinyRun runs one workload on the smallest unit counts and returns the
// result line and the names of the metrics it emitted.
func tinyRun(t *testing.T, workload string, traced bool) (result, []string) {
	t.Helper()
	var buf bytes.Buffer
	opts := options{seed: 1, seconds: 0, traced: traced, minUnits: 1, driverFor: time.Millisecond, out: &buf}
	if err := run(lookupWorkload(workload), opts); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, buf.String())
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("run not clean: %s", buf.String())
	}
	var got []string
	for name, v := range res.Metrics {
		if !metricName.MatchString(name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", name)
		}
		if v.Unit == "" {
			t.Errorf("metric %s has no unit", name)
		}
		got = append(got, name)
	}
	sort.Strings(got)
	return res, got
}

// TestMain moves to the repository root, where the runner is started from
// and where BENCHMARK.json and bench/out/ live.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	registerTraced(activeTracer.Load)
	os.Exit(m.Run())
}

// TestDeclaredMetrics: what a run emits is exactly what BENCHMARK.json
// declares — end-to-end names untraced, per-layer names traced — and the
// declared workloads are the ones the runner knows.
func TestDeclaredMetrics(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "BENCHMARK.json", &bf)
	if !slices.Equal(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", bf.Paths)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d != the runner's default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d known", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: declared %q, runner has %q", i, w.Name, workloads[i].name)
		}
	}
	_, e2e := tinyRun(t, "trace-analysis", false)
	if want := names(bf.EndToEnd); !slices.Equal(e2e, want) {
		t.Errorf("end-to-end metrics emitted %v\ndeclared %v", e2e, want)
	}
	for _, d := range bf.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

// TestTracedRun drives the traced run on the workload that has world
// spans on several workers: per-layer names match the declaration, span
// parents resolve, and the traced, untraced and one-shard digests agree
// (run fails itself otherwise).
func TestTracedRun(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "BENCHMARK.json", &bf)
	_, got := tinyRun(t, "fleet-catalog", true)
	if want := names(bf.PerLayer); !slices.Equal(got, want) {
		t.Errorf("per-layer metrics emitted %v\ndeclared %v", got, want)
	}
	var spans []span
	readJSON(t, outDir+"/fleet-catalog.trace.json", &spans)
	if err := checkSpans(spans); err != nil {
		t.Fatal(err)
	}
	worlds, workers := 0, map[int]bool{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "world:") {
			worlds++
			workers[s.Worker] = true
			if spans[s.Parent].Name != "unit" {
				t.Fatalf("world span %d hangs off %q", s.ID, spans[s.Parent].Name)
			}
		}
	}
	if worlds != fleetWorlds || len(workers) != fleetShards() {
		t.Errorf("%d world spans on %d workers, want %d on %d", worlds, len(workers), fleetWorlds, fleetShards())
	}
}

// TestInteractions: every declared interaction names a per-layer metric,
// an end-to-end metric and workloads that exist.
func TestInteractions(t *testing.T) {
	var bf benchmarkFile
	readJSON(t, "BENCHMARK.json", &bf)
	var table []struct {
		Layer   []string `json:"layer"`
		Moves   []string `json:"moves"`
		On      []string `json:"on"`
		NoMove  []string `json:"no_move_on"`
		Because string   `json:"because"`
	}
	readJSON(t, "bench/interactions.json", &table)
	if len(table) == 0 {
		t.Fatal("no interactions declared")
	}
	layer, e2e := names(bf.PerLayer), names(bf.EndToEnd)
	for i, row := range table {
		if len(row.Layer) == 0 || len(row.Moves) == 0 || len(row.On) == 0 || row.Because == "" {
			t.Errorf("interaction %d is incomplete: %+v", i, row)
		}
		for _, n := range row.Layer {
			if !slices.Contains(layer, n) {
				t.Errorf("interaction %d: %q is not a per-layer metric", i, n)
			}
		}
		for _, n := range row.Moves {
			if !slices.Contains(e2e, n) {
				t.Errorf("interaction %d: %q is not an end-to-end metric", i, n)
			}
		}
		for _, n := range append(row.On, row.NoMove...) {
			if lookupWorkload(n) == nil {
				t.Errorf("interaction %d: %q is not a workload", i, n)
			}
		}
	}
}

// TestSeedsIgnoreIterationCount: unit i simulates the same thing whether
// it is reached as the third unit of a run or called on its own.
func TestSeedsIgnoreIterationCount(t *testing.T) {
	w := lookupWorkload("probe-campaign")
	e := &env{seed: 3, shards: 1}
	seq := runUnits(w, e, 0, forUnits(3))
	alone := w.unit(e, 2)
	if seq[2].out.digest != alone.digest {
		t.Fatalf("unit 2 in sequence %016x, alone %016x", seq[2].out.digest, alone.digest)
	}
	if seq[0].out.digest == seq[1].out.digest {
		t.Fatal("units 0 and 1 simulated the same world")
	}
	if other := w.unit(&env{seed: 4, shards: 1}, 2); other.digest == alone.digest {
		t.Fatal("the run seed does not reach the unit")
	}
}

// TestProfileFold: nearly every CPU sample of a real profile lands in a
// named bucket, and the packages fold where the README says they do.
func TestProfileFold(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Scheduler).advance":      "sim",
		"repro/internal/netsim.(*Port).fastHandle":     "netsim",
		"repro/internal/crosstraffic.(*OnOff).emit":    "netsim",
		"repro/internal/topo/scenarios.runDumbbell":    "topo",
		"repro/internal/apps/rft.(*Sender).onAck":      "rft",
		"repro/internal/stats.(*Histogram).Add":        "analysis",
		"repro/internal/planetlab.(*Path).Transmit":    "probe",
		"repro/internal/core.RunFleet.func1":           "exp",
		"main.traceUnit":                               "bench",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"math/rand.(*Rand).Float64":                    "stdlib",
		"encoding/csv.(*Reader).readRecord":            "stdlib",
		"":                                             "other",
	} {
		if got := bucketOf(fn); got != want {
			t.Errorf("bucketOf(%q) = %s, want %s", fn, got, want)
		}
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		t.Fatal(err)
	}
	w := lookupWorkload("probe-campaign")
	e := &env{seed: 1, shards: 1}
	for start, i := time.Now(), 0; time.Since(start) < 600*time.Millisecond; i++ {
		w.unit(e, i)
	}
	pprof.StopCPUProfile()
	shares, n, err := foldProfile(prof.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, b := range cpuBuckets {
		total += shares[b]
	}
	if n < 20 || total < 0.999 || shares["other"] > 0.05 {
		t.Fatalf("%d samples, %.3f attributed, %.3f unnamed: %v", n, total, shares["other"], shares)
	}
	if shares["sim"] == 0 {
		t.Errorf("probe-campaign profile has no sample in sim: %v", shares)
	}
	if _, _, err := foldProfile([]byte("not a profile")); err == nil {
		t.Error("garbage folded without error")
	}
}
