// Command bench is the repository's one benchmark: five named workloads
// driven through internal/core, timed in host wall clock per unit of
// simulated work, with isolated per-layer drivers, spans and a folded CPU
// profile in a separate traced run. BENCHMARK.json at the repository root
// declares its command, workloads, metrics and regression bounds;
// bench/README.md is the glossary and the measurement protocol.
//
// Run it from the repository root:
//
//	bash bench/run.sh --seed 1                            # all workloads, end-to-end metrics
//	bash bench/run.sh --workload fig2-dumbbell --seed 1 --seconds 15 --trace 1
//
// Every metric is printed as "name value unit"; the last line of standard
// output is one JSON object {correct, attempted, failed, metrics}, and the
// same numbers plus per-unit digests are written under bench/out/.
//
// A unit is one call into core. Unit i is seeded sim.SubSeed(seed, i), so
// the inputs depend on the seed and the unit index alone — never on how
// many units a run gets through in its time budget.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/topo"
)

const (
	outDir = "bench/out"
	// defaultSeconds matches run_seconds in BENCHMARK.json.
	defaultSeconds = 15
	// setupRuns is how many times set-up is repeated, each in a fresh
	// process, for the setup_s median.
	setupRuns = 5
	// minUnits is the fewest units a timed phase runs whatever its budget,
	// and the number of leading units the printed digest covers — so the
	// digest of a run does not depend on how fast the host was.
	minUnits = 4
	// driverBudget is the host time each isolated driver measures for.
	driverBudget = 100 * time.Millisecond
)

type options struct {
	seed      int64
	seconds   float64
	traced    bool
	setupRuns int // fresh processes timed for setup_s; 0 times the run's own set-up instead
	minUnits  int
	driverFor time.Duration
	out       io.Writer
}

// activeTracer is what the "bench:" scenario registrations record into;
// nil outside a traced phase.
var activeTracer atomic.Pointer[tracer]

func main() {
	workloadFlag := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "seed every input is derived from")
	seconds := flag.Float64("seconds", defaultSeconds, "host seconds the timed phase measures for")
	trace := flag.Int("trace", 0, "1: traced run printing the per-layer metrics; 0: end-to-end metrics, tracing off")
	setupOnly := flag.Bool("setup-only", false, "perform set-up for the workload and exit (used to time set-up in a fresh process)")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		flag.Usage()
		os.Exit(2)
	}

	var selected []*workload
	if *workloadFlag == "all" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := lookupWorkload(*workloadFlag); w != nil {
		selected = []*workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadFlag)
		os.Exit(2)
	}

	registerTraced(activeTracer.Load)
	if *setupOnly {
		for _, w := range selected {
			setUp(w, *seed)
		}
		return
	}
	opts := options{seed: *seed, seconds: *seconds, traced: *trace == 1,
		setupRuns: setupRuns, minUnits: minUnits, driverFor: driverBudget, out: os.Stdout}
	for _, w := range selected {
		if err := run(w, opts); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
}

// fleetShards is the fleet-catalog worker count: every processor, at
// most four.
func fleetShards() int { return min(runtime.NumCPU(), 4) }

// setUp does everything that precedes the first timed unit: generates the
// workload's inputs from the seed and runs one untimed warm-up unit. The
// warm-up is unit 0 — the same inputs as the first timed unit — so its
// digest is the "run 1" that the timed unit 0 must reproduce; on
// fleet-catalog it runs on one shard, so the comparison is also the
// shard-invariance check.
func setUp(w *workload, seed int64) (*env, unitOut) {
	e := &env{seed: seed, shards: fleetShards()}
	if w.inputs != nil {
		e.in = w.inputs(seed)
	}
	warm := *e
	warm.shards = 1
	return e, w.unit(&warm, 0)
}

// timeSetUps runs set-up n times, each in a fresh process of this same
// binary, and returns the wall time of each from spawn to exit: process
// start, package initialisation (the scenario registry), input generation
// and the warm-up unit. A fresh process per repeat is what keeps caches a
// change might add to set-up from hiding behind the first repeat.
func timeSetUps(w *workload, seed int64, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(self, "--workload", w.name, "--seed", strconv.FormatInt(seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		out = append(out, time.Since(t0).Seconds())
	}
	return out, nil
}

// sample is one timed unit.
type sample struct {
	wallNs float64
	allocB float64
	out    unitOut
}

// runUnits runs units first, first+1, … on the calling goroutine — the
// single closed-loop generator — until stop says so. Each unit is timed
// on its own and bracketed by TotalAlloc readings.
func runUnits(w *workload, e *env, first int, stop func(done int, elapsed time.Duration) bool) []sample {
	var out []sample
	var ms runtime.MemStats
	start := time.Now()
	for i := first; ; i++ {
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		id := e.tr.beginUnit(i)
		t0 := time.Now()
		u := w.unit(e, i)
		wall := time.Since(t0)
		e.tr.end(id)
		runtime.ReadMemStats(&ms)
		out = append(out, sample{float64(wall.Nanoseconds()), float64(ms.TotalAlloc - alloc0), u})
		if stop(len(out), time.Since(start)) {
			return out
		}
	}
}

func (o options) forSeconds(s float64) func(int, time.Duration) bool {
	return func(done int, el time.Duration) bool { return done >= o.minUnits && el.Seconds() >= s }
}

func forUnits(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done >= n }
}

// outcome is what a run reports besides its metrics.
type outcome struct {
	Workload  string   `json:"workload"`
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	Traced    bool     `json:"traced"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Digest    string   `json:"digest"` // over the first minUnits units
	Units     []string `json:"unit_digests"`
	// UnitMs, UnitItems and UnitAllocB are the host time, the items and the
	// bytes allocated of every unit of the run's first phase, for percentiles
	// the metrics do not print.
	UnitMs     []float64 `json:"unit_ms"`
	UnitItems  []float64 `json:"unit_items"`
	UnitAllocB []float64 `json:"unit_alloc_b"`
	Notes      []string  `json:"notes,omitempty"`
	Metrics    []metric  `json:"metrics"`
}

func (o *outcome) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// fold counts a phase's units into the outcome: failures against
// attempts, and any output check that did not hold.
func (o *outcome) fold(phase string, samples []sample) {
	for i, s := range samples {
		o.Attempted++
		if s.out.failed {
			o.Failed++
			o.note("%s unit %d failed: %s", phase, i, s.out.note)
		}
		if s.out.check != nil {
			o.Correct = false
			o.note("%s unit %d check: %v", phase, i, s.out.check)
		}
	}
}

// sameDigests checks that two runs of the same units simulated the same
// thing: every statistic identical, bit for bit.
func (o *outcome) sameDigests(what string, a, b []unitOut) {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i].digest != b[i].digest {
			o.Correct = false
			o.note("%s: unit %d digest %016x != %016x", what, i, a[i].digest, b[i].digest)
		}
	}
}

func outs(samples []sample) []unitOut {
	out := make([]unitOut, len(samples))
	for i, s := range samples {
		out[i] = s.out
	}
	return out
}

// record keeps the per-unit digests, times and items of a phase, and the
// run digest over its leading units.
func (o *outcome) record(samples []sample) {
	d := newDigest()
	for i, s := range samples {
		o.Units = append(o.Units, fmt.Sprintf("%016x", s.out.digest))
		o.UnitMs = append(o.UnitMs, s.wallNs/1e6)
		o.UnitItems = append(o.UnitItems, s.out.items)
		o.UnitAllocB = append(o.UnitAllocB, s.allocB)
		if i < minUnits {
			d.u64(s.out.digest)
		}
	}
	o.Digest = fmt.Sprintf("%016x", uint64(d))
}

// run measures one workload and prints its result.
func run(w *workload, opts options) error {
	o := &outcome{Workload: w.name, Seed: opts.seed, Seconds: opts.seconds, Traced: opts.traced, Correct: true}
	var ms metricSet
	var err error
	if opts.traced {
		err = runTraced(w, opts, o, &ms)
	} else {
		err = runEndToEnd(w, opts, o, &ms)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	o.Metrics = ms.list

	fmt.Fprintf(opts.out, "# workload %s seed %d trace %v: %d units attempted, %d failed, digest %s (first %d units)\n",
		w.name, opts.seed, opts.traced, o.Attempted, o.Failed, o.Digest, min(minUnits, len(o.Units)))
	for _, n := range o.Notes {
		fmt.Fprintln(opts.out, "#", n)
	}
	ms.print(opts.out)
	fmt.Fprintf(opts.out, "%-28s %.6g %s\n", "fail_share", ratio(float64(o.Failed), float64(o.Attempted)), "share")

	file := w.name + ".json"
	if opts.traced {
		file = w.name + ".traced.json"
	}
	if err := writeJSON(file, o); err != nil {
		return err
	}
	line, err := json.Marshal(result{Correct: o.Correct, Attempted: o.Attempted, Failed: o.Failed, Metrics: ms.resultMap()})
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintln(opts.out, string(line))
	return err
}

// runEndToEnd is the untraced run: repeated set-up, one timed phase of
// opts.seconds, the end-to-end metrics.
func runEndToEnd(w *workload, opts options, o *outcome, ms *metricSet) error {
	setups, err := timeSetUps(w, opts.seed, opts.setupRuns)
	if err != nil {
		return err
	}
	t0 := time.Now()
	e, warm := setUp(w, opts.seed)
	if len(setups) == 0 {
		setups = []float64{time.Since(t0).Seconds()}
	}

	samples := runUnits(w, e, 0, opts.forSeconds(opts.seconds))
	o.fold("timed", samples)
	o.record(samples)
	o.sameDigests("warm-up (one shard) vs timed unit", []unitOut{warm}, outs(samples))
	if info := samples[0].out.info; info != "" {
		o.note("%s", info)
	}

	var perItem, unitMs, simPerWall []float64
	var allocB, items float64
	for _, s := range samples {
		unitMs = append(unitMs, s.wallNs/1e6)
		if s.out.items > 0 {
			perItem = append(perItem, s.wallNs/s.out.items)
		}
		simPerWall = append(simPerWall, ratio(s.out.simSecs, s.wallNs/1e9))
		allocB += s.allocB
		items += s.out.items
	}
	n := len(samples)
	hi, pct := hiPercentile(unitMs)
	ms.add("setup_s", median(setups), "s", fmt.Sprintf("host; median of %d set-ups: process start, registry, inputs, warm-up unit", len(setups)))
	ms.add("ns_per_item", median(perItem), "ns", fmt.Sprintf("host ns per %s; median of %d units", w.item, len(perItem)))
	ms.add("unit_ms_p50", median(unitMs), "ms", fmt.Sprintf("host; %d units", n))
	ms.add("unit_ms_hi", hi, "ms", fmt.Sprintf("host; p%d of %d units", pct, n))
	ms.add("unit_ms_mean", sum(unitMs)/float64(n), "ms", fmt.Sprintf("host; timed phase wall / %d units", n))
	ms.add("sim_s_per_wall_s", median(simPerWall), "x", "simulated seconds per host second; median over units")
	// The ratio of the sums: the bytes the whole phase cost. What a fresh
	// world allocates depends on its seed (relative deviation 40% per unit),
	// so between seeds this moves 6–9%; for the same seed it repeats to the
	// extent the run gets through the same units.
	ms.add("alloc_b_per_item", ratio(allocB, items), "B", fmt.Sprintf("TotalAlloc delta of the units per %s", w.item))
	return nil
}

// runTraced is the traced run: the same leading units three ways —
// untraced, then traced under a CPU profile, then (fleet-catalog) on one
// shard — followed by the isolated drivers.
func runTraced(w *workload, opts options, o *outcome, ms *metricSet) error {
	e, _ := setUp(w, opts.seed)

	// Reference phase, tracing off: how long these units take untouched.
	share := 0.45
	if w.sharded {
		share = 0.28 // the one-shard phase below takes the rest
	}
	ref := runUnits(w, e, 0, opts.forSeconds(opts.seconds*share))
	o.fold("untraced", ref)
	o.record(ref)

	// Traced phase: the same units, spans on, "bench:" registrations of
	// the scenarios, a CPU profile around the whole phase.
	tr := newTracer()
	te := *e
	te.tr, te.prefix, te.stage = tr, tracePrefix, stageTimes{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("start CPU profile: %w", err)
	}
	activeTracer.Store(tr)
	traced := runUnits(w, &te, 0, forUnits(len(ref)))
	activeTracer.Store(nil)
	pprof.StopCPUProfile()
	o.fold("traced", traced)
	o.sameDigests("traced vs untraced", outs(ref), outs(traced))

	tracedWall := sum(wallMs(traced)) * 1e6
	ms.add("bench.trace_overhead_x", ratio(median(wallMs(traced)), median(wallMs(ref))), "x",
		fmt.Sprintf("traced / untraced median host time of the same %d units", len(ref)))

	shares, nsamples, err := foldProfile(prof.Bytes())
	if err != nil {
		return err
	}
	for _, b := range cpuBuckets {
		ms.add(b+".cpu_share", shares[b], "share", fmt.Sprintf("flat CPU samples by package; %d samples", nsamples))
	}

	// Exact counts from the results of the traced units.
	var events, forwarded, drops uint64
	var items float64
	var valid, paths int
	for _, s := range traced {
		events += s.out.events
		forwarded += s.out.forwarded
		drops += s.out.drops
		items += s.out.items
		valid += s.out.valid
		paths += s.out.paths
	}
	if tr.worlds > 0 { // the wrapped scenarios saw every world's own counts
		forwarded, drops = tr.forwarded, tr.drops
	}
	ms.add("sim.events_per_item", ratio(float64(events), items), "1/item", "scheduler events fired per "+w.item)
	ms.add("sim.run_ns_per_event", ratio(tracedWall, float64(events)), "ns", "host unit time per scheduler event fired")
	ms.add("netsim.drop_share", ratio(float64(drops), float64(forwarded+drops)), "share", "losses / (forwarded + losses)")
	ms.add("probe.valid_share", ratio(float64(valid), float64(paths)), "share", "paths passing dual-size validation")
	var retrans, fct99 float64
	if t := tr.transfers; t != nil {
		retrans, fct99 = t.RetransRatio(), t.FCTQuantile(0.99)*1e3
	}
	ms.add("rft.retrans_share", retrans, "share", "retransmitted / sent chunks")
	ms.add("rft.fct_p99_ms", fct99, "ms", "simulated flow completion time")

	// World spans: where a sweep or campaign spent its workers' time.
	worldMs, byName, count := tr.worldSpans()
	whi, wpct := hiPercentile(worldMs)
	ms.add("exp.world_ms_p50", median(worldMs), "ms", fmt.Sprintf("host; %d world spans", len(worldMs)))
	ms.add("exp.world_ms_hi", whi, "ms", fmt.Sprintf("host; p%d of %d world spans", wpct, len(worldMs)))
	workers := 1
	if w.sharded {
		workers = e.shards
	}
	idle := 0.0
	if len(worldMs) > 0 {
		idle = 1 - sum(worldMs)*1e6/(float64(workers)*tracedWall)
	}
	ms.add("exp.idle_share", idle, "share", fmt.Sprintf("1 - world spans / (%d workers x unit wall): turnstile wait, merge, tail", workers))
	ms.add("topo.setup_share", setupShare(byName, count), "share", "zero-duration worlds on a warm arena / world spans")

	// One-shard phase: the same campaigns without parallelism.
	var seqMs, scale float64
	if w.sharded {
		se := *e
		se.shards = 1
		seq := runUnits(w, &se, 0, forUnits(len(ref)))
		o.fold("one-shard", seq)
		o.sameDigests(fmt.Sprintf("1 shard vs %d shards", e.shards), outs(seq), outs(ref))
		seqMs = median(wallMs(seq))
		scale = ratio(seqMs, median(wallMs(ref)))
	}
	ms.add("exp.seq_unit_ms", seqMs, "ms", "host; median campaign at one shard")
	ms.add("exp.scale_x", scale, "x", fmt.Sprintf("one-shard / %d-shard median campaign time", e.shards))

	if st := te.stage; st.losses > 0 {
		o.note("stage host ms per unit: csv %.1f batch %.1f observe %.1f finalize %.2f absorb %.2f",
			perUnitMs(st.csv, len(traced)), perUnitMs(st.batch, len(traced)), perUnitMs(st.observe, len(traced)),
			perUnitMs(st.finalize, len(traced)), perUnitMs(st.absorb, len(traced)))
	}

	runDrivers(ms, opts.driverFor)

	if err := checkSpans(tr.spans); err != nil {
		o.Correct = false
		o.note("spans: %v", err)
	}
	return writeJSON(w.name+".trace.json", tr.spans)
}

func perUnitMs(d time.Duration, units int) float64 {
	return ratio(float64(d.Nanoseconds())/1e6, float64(units))
}

func wallMs(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = s.wallNs / 1e6
	}
	return out
}

// checkSpans verifies the span file is a forest: every span closed, every
// parent an earlier span of the same unit.
func checkSpans(spans []span) error {
	for _, s := range spans {
		if s.End < s.Start {
			return fmt.Errorf("span %d (%s) never ended", s.ID, s.Name)
		}
		if s.Parent == -1 {
			continue
		}
		if s.Parent < 0 || s.Parent >= s.ID {
			return fmt.Errorf("span %d (%s) has parent %d", s.ID, s.Name, s.Parent)
		}
		if p := spans[s.Parent]; p.Unit != s.Unit {
			return fmt.Errorf("span %d (%s) of unit %d has parent in unit %d", s.ID, s.Name, s.Unit, p.Unit)
		}
	}
	return nil
}

// setupShare estimates how much of the world spans was world set-up —
// topo.NetworkIn's reset of a cached world plus flow wiring — from
// outside: each scenario is run on a warm arena with a simulated duration
// of one nanosecond, which builds and wires the world, runs nothing, and
// fails for want of losses. That time, times the worlds of that scenario,
// over the time of all world spans.
func setupShare(spanNs map[string]float64, count map[string]int) float64 {
	var setup, total float64
	arena := exp.NewArena()
	for name, ns := range spanNs {
		sc, ok := topo.Lookup(name)
		if !ok || sc.RunIn == nil {
			continue
		}
		cfg := topo.ScenarioConfig{Seed: 1, Duration: 1, Warmup: 1}
		_, _ = sc.RunIn(cfg, arena) // instantiates; the "too few drops" error is the point
		best := time.Duration(math.MaxInt64)
		for k := 0; k < 3; k++ { // every later pass resets the cached world
			t0 := time.Now()
			_, _ = sc.RunIn(cfg, arena)
			best = min(best, time.Since(t0))
		}
		setup += float64(best.Nanoseconds()) * float64(count[name])
		total += ns
	}
	return ratio(setup, total)
}
