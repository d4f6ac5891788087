package repro_test

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/topo"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden scenario loss traces")

// goldenConfig is the fixed reduced-scale configuration every registered
// scenario is replayed under. The parameters are deliberately small (the
// four runs together take about a second) but long enough past warmup that
// every scenario produces a multi-burst loss trace.
var goldenConfig = topo.ScenarioConfig{
	Seed:     7,
	Duration: 15 * sim.Second,
	Warmup:   3 * sim.Second,
}

// goldenAmbiguousTies pins each scenario's AmbiguousTies at goldenConfig:
// the same-instant comparisons a coalesced timer decided by arming order
// alone, where a reference execution could have ordered them otherwise. A
// change must not raise a count; one that lowers it re-pins it here.
var goldenAmbiguousTies = map[string]uint64{
	"access-tree":        0,
	"cellular-trace":     0,
	"dumbbell":           0,
	"flaky-backbone":     0,
	"gcc-cellular":       0,
	"gcc-vs-tcp-wifi":    0,
	"hetero-mesh":        0,
	"parking-lot":        5,
	"rft-fleet-dumbbell": 0,
	"rft-wifi":           0,
	"wifi-gilbert":       0,
}

// renderGolden serializes a scenario's loss trace exactly: one line per
// drop with the nanosecond timestamp, flow id and sequence number. Any
// change to the engine that alters packet dynamics — event ordering,
// random stream consumption, queue state — shows up as a diff here.
func renderGolden(name string, res *core.ScenarioResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# scenario=%s seed=%d duration=%v drops=%d\n",
		name, goldenConfig.Seed, goldenConfig.Duration, res.Drops)
	for _, ev := range res.Trace.Events() {
		fmt.Fprintf(&b, "%d %d %d\n", int64(ev.At), ev.Flow, ev.Seq)
	}
	return b.String()
}

// runScenario runs one registered scenario on a fresh arena, so the
// result carries the raw trace.
func runScenario(name string, cfg topo.ScenarioConfig) (*core.ScenarioResult, error) {
	sc, ok := topo.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q", name)
	}
	return sc.RunIn(cfg, nil)
}

// TestScenarioLossGoldens pins the loss-interval sequence of every
// registered scenario to a checked-in golden file. This is the repo's
// cross-package determinism contract for the simulator core: scheduler,
// queue, transport and topology changes must reproduce these traces
// bit-identically (run with -update only when a behavioural change is
// intended and explained).
func TestScenarioLossGoldens(t *testing.T) {
	names := topo.Names()
	if len(names) < 11 {
		t.Fatalf("scenario registry has %d entries, want at least the 11 catalog scenarios", len(names))
	}
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			res, err := runScenario(name, goldenConfig)
			if err != nil {
				t.Fatalf("scenario %q: %v", name, err)
			}
			if want, ok := goldenAmbiguousTies[name]; !ok || res.AmbiguousTies != want {
				t.Errorf("scenario %q: %d ambiguous ties, want %d (listed: %v)",
					name, res.AmbiguousTies, want, ok)
			}
			got := renderGolden(name, res)
			path := filepath.Join("testdata", "golden", name+".txt")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run `go test -run ScenarioLossGoldens -update .`): %v", err)
			}
			if got != string(want) {
				t.Fatalf("scenario %q loss trace diverged from golden %s:\n%s",
					name, path, diffSummary(string(want), got))
			}
		})
	}
}

// diffSummary reports where two golden renderings first diverge, keeping
// failure output readable for multi-thousand-line traces.
func diffSummary(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	n := len(wl)
	if len(gl) < n {
		n = len(gl)
	}
	for i := 0; i < n; i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("line %d:\n  golden: %q\n  got:    %q\n(%d vs %d lines total)",
				i+1, wl[i], gl[i], len(wl), len(gl))
		}
	}
	return fmt.Sprintf("line counts differ: golden %d, got %d", len(wl), len(gl))
}
