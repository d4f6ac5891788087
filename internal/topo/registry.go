package topo

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/analysis"
	"repro/internal/apps/rft"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/trace"
)

// ScenarioConfig carries the knobs every registered scenario understands.
// Topology-specific parameters (hop counts, rates, RTT sources) are fixed
// by the scenario itself so that a scenario name plus this config fully
// determines a run.
type ScenarioConfig struct {
	// Seed determines every random stream of the run. Scenarios derive
	// their internal streams with sim.SubSeed, so equal seeds mean
	// bit-identical worlds.
	Seed int64
	// Duration is the simulated run length (default 60 s).
	Duration sim.Duration
	// Warmup discards losses before this time (default 10 s).
	Warmup sim.Duration
	// PktSize is the transport segment size in bytes (default 1000).
	PktSize int

	// RateScale, RTTScale and LossScale are the fleet-jitter multipliers:
	// every link rate (and cross-traffic capacity), every propagation
	// delay, and the Gilbert–Elliott bad-state entry rate of the scenario
	// are scaled by these factors, so one registered scenario spans a
	// parameter neighborhood instead of a point. Zero (and exactly 1)
	// means nominal — the golden-pinned world — as an exact no-op: the
	// scale path is skipped entirely, not multiplied by 1.0. Queue limits
	// stay at their nominal sizing, so jitter perturbs the load relative
	// to buffering rather than resizing the buffers. See ScaleSpec.
	RateScale float64
	RTTScale  float64
	LossScale float64
}

// FillDefaults applies the paper-style defaults to zero fields.
func (c *ScenarioConfig) FillDefaults() {
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * sim.Second
	}
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
}

// ScenarioResult is a scenario run's outcome: the same burstiness analysis
// the dumbbell figures produce, so every registered topology is directly
// comparable to the paper's Figures 2–4.
type ScenarioResult struct {
	// Report is the inter-loss-interval PDF analysis.
	Report *analysis.Report
	// Trace is the raw post-warmup drop trace, retained only when the run
	// owned its arena (RunIn with a nil arena); nil on a caller's arena,
	// where events are analyzed online and never stored.
	Trace *trace.Recorder
	// MeanRTT is the normalization RTT handed to the analysis.
	MeanRTT sim.Duration
	// Bursts summarizes RTT-grouped loss bursts.
	Bursts analysis.BurstStats
	// Drops is the number of recorded losses.
	Drops int
	// Events is the number of simulated events the world executed
	// (sim.Scheduler.Fired), for throughput accounting.
	Events uint64
	// Forwarded is the number of packet transmissions the world's ports
	// performed (Network.Forwarded, summed over every built network).
	// Events/Forwarded is the events-per-forwarded-packet ratio that the
	// link-service batching drives down; see ARCHITECTURE.md.
	Forwarded uint64
	// AmbiguousTies is the world's sim.Scheduler.AmbiguousTies: queue
	// comparisons that only the arming sequence could decide although one
	// side was a coalesced stand-in — the ties the batched port cannot
	// prove it orders as the per-packet reference would.
	AmbiguousTies uint64
	// Flows is the number of traffic sources the world ran — transport
	// flows plus cross-traffic noise sources — for fleet-scale
	// accounting.
	Flows int
	// Analyzer is the streaming analyzer that observed the run's losses.
	// It points into the arena the run executed on and is valid ONLY until
	// that arena's next use — the fleet layer absorbs it into a cross-world
	// aggregate on the worker goroutine before the arena is recycled.
	// Everything else in the result is detached and safe to retain.
	Analyzer *analysis.Streaming
	// Transfers aggregates the run's reliable-file-transfer outcomes
	// (flow completion times, goodput, retransmission totals); nil for
	// scenarios without FlowRFT flows. Unlike Analyzer it is freshly
	// allocated per run — detached and safe to retain or merge.
	Transfers *rft.TransferAgg
}

// Scenario is one registered topology/workload combination.
type Scenario struct {
	// Name is the registry key, used by `paperexp -scenario <name>`.
	Name string
	// Description is a one-line summary for catalogs.
	Description string
	// Topology summarizes the path structure (nodes/links/bottlenecks).
	Topology string
	// Headline is the measured headline burstiness (convention: a 12 s
	// seed-1 run, `go run ./examples/topologies`) rendered into the
	// generated EXPERIMENTS.md scenario catalog by
	// `docscheck -write-catalog`. Optional; the generator prints "—" when
	// empty.
	Headline string
	// RunIn executes one world with the given config on the arena — a
	// sweep or fleet worker's, or nil for a fresh one, which additionally
	// retains the drop trace in the result (see World). Implementations
	// must honor the determinism contract: build everything through the
	// World, derive all randomness from cfg.Seed, and never share state
	// across calls.
	RunIn func(cfg ScenarioConfig, a *exp.Arena) (*ScenarioResult, error)
}

var (
	registryMu sync.Mutex
	registry   = map[string]Scenario{}
)

// Register adds a scenario to the global registry. It panics on a missing
// name or RunIn function and on duplicate registration — all three are
// programming errors at package init time.
func Register(s Scenario) {
	if s.Name == "" || s.RunIn == nil {
		panic("topo: Register requires a name and a RunIn function")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[s.Name]; dup {
		panic(fmt.Sprintf("topo: scenario %q registered twice", s.Name))
	}
	registry[s.Name] = s
}

// Scenarios lists the registered scenarios sorted by name.
func Scenarios() []Scenario {
	registryMu.Lock()
	defer registryMu.Unlock()
	out := make([]Scenario, 0, len(registry))
	for _, s := range registry {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Names lists the registered scenario names, sorted.
func Names() []string {
	all := Scenarios()
	out := make([]string, len(all))
	for i, s := range all {
		out[i] = s.Name
	}
	return out
}

// Lookup finds a scenario by name.
func Lookup(name string) (Scenario, bool) {
	registryMu.Lock()
	defer registryMu.Unlock()
	s, ok := registry[name]
	return s, ok
}
