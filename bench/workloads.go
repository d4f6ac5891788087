package main

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/lossmodel"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// unitOut is what one unit — one call into core — hands back to the
// runner: how much simulated work it did, a digest of every simulated
// statistic it produced, and whether its outputs check out.
type unitOut struct {
	items     float64 // work items, in the workload's own unit (workload.item)
	simSecs   float64 // simulated seconds covered
	events    uint64  // scheduler events fired; 0 where no scheduler runs
	forwarded uint64  // port transmissions, where the result exposes them
	drops     uint64  // losses recorded
	valid     int     // probe-campaign: paths that passed dual-size validation
	paths     int     // probe-campaign: paths measured
	digest    uint64
	// failed marks a unit that errored, had a replication or world skipped,
	// or whose mechanism never fired. It counts against attempted; it does
	// not abort the run.
	failed bool
	note   string // why it failed
	info   string // a verdict that is printed, not asserted
	// check is an output check that did not hold. It fails the run.
	check error
}

func (u *unitOut) fail(format string, args ...any) {
	u.failed = true
	if u.note == "" {
		u.note = fmt.Sprintf(format, args...)
	}
}

func (u *unitOut) bad(format string, args ...any) {
	if u.check == nil {
		u.check = fmt.Errorf(format, args...)
	}
}

// env is the state a unit runs in. The program under test receives only
// what the unit derives from it: a seed, generated inputs, a shard count.
type env struct {
	seed   int64
	shards int    // fleet-catalog worker count
	prefix string // "" or tracePrefix: which registration of a scenario runs
	tr     *tracer
	in     *traceInputs // trace-analysis inputs, generated in set-up
	stage  stageTimes   // trace-analysis: host ns per stage, summed over units
}

// workload is one named set of inputs. Every later issue refers to
// workloads by these names.
type workload struct {
	name string
	item string // what ns_per_item divides by
	why  string // one line for BENCHMARK.json
	unit func(e *env, i int) unitOut
	// inputs generates, in set-up, what the units share; nil where a unit
	// derives everything from its own seed.
	inputs func(seed int64) *traceInputs
	// sharded marks the workload whose units run e.shards workers; the
	// traced run replays it on one shard.
	sharded bool
}

var workloads = []workload{
	{name: "fig2-dumbbell", item: "forwarded packet", unit: fig2Unit,
		why: "Figure 2 world: dense heap and rearm scheduler traffic, fast-path ports, TCP; no measurement cost. Where a scheduler or port gain must show."},
	{name: "dynamic-mix", item: "forwarded packet", unit: dynamicUnit,
		why: "Seven time-varying scenarios: retunes rewind chains, wire-loss hooks force per-packet events, GCC and RFT transports. Where a fast-path gain that taxes the exact path shows."},
	{name: "probe-campaign", item: "probe sent", unit: probeUnit,
		why: "Figure 4 campaign: sparse 1 ms timers on wheel and heap, no ports and no TCP. The scheduler's other regime; bypasses any port or transport change."},
	{name: "trace-analysis", item: "loss event per path", unit: traceUnit, inputs: newTraceInputs,
		why: "Two 200k-event traces (bursty, Poisson null) through the CSV batch path and the streaming path. No scheduler, no ports; only a measurement-stack change moves it."},
	{name: "fleet-catalog", item: "world merged", unit: fleetUnit, sharded: true,
		why: "44 short jittered worlds over all 11 scenarios per campaign: topo set-up, arena reuse, the turnstile and merge are the largest share they ever are."},
}

func lookupWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// unitSeed derives unit i's seed from the run seed and the unit index
// alone — never from how many units a run gets through.
func unitSeed(seed int64, i int) int64 { return sim.SubSeed(seed, int64(i)) }

// digest folds simulated statistics FNV-style, bit-exactly: two runs
// that simulate the same thing produce the same digest, whatever the host
// did meanwhile.
type digest uint64

func newDigest() digest { return 14695981039346656037 }

func (d *digest) u64(x uint64)  { *d = (*d ^ digest(x)) * 1099511628211 }
func (d *digest) f64(x float64) { d.u64(math.Float64bits(x)) }
func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.u64(uint64(s[i]))
	}
}

func (d *digest) report(r *analysis.Report) {
	d.u64(uint64(r.N))
	d.u64(uint64(r.RTT))
	for _, v := range []float64{r.Lambda, r.FracBelow001, r.FracBelow025, r.FracBelow1,
		r.IndexOfDispersion, r.CoV, r.KSDistance} {
		d.f64(v)
	}
	if r.RejectsPoisson {
		d.u64(1)
	}
	for i := 0; i < r.Hist.NumBins(); i++ {
		d.u64(uint64(r.Hist.Count(i)))
	}
}

// foldSweep adds one replicated-scenario result to a unit: counts,
// digest, and the checks every TCP-driven world must pass — the loss
// accounting closes (every recorded drop was analysed) and the loss
// process is burstier than Poisson, the paper's claim.
func foldSweep(u *unitOut, d *digest, what string, sw *core.ScenarioSweep, err error, simSecs float64) {
	u.simSecs += simSecs
	if err != nil {
		u.fail("%s: %v", what, err)
		return
	}
	if len(sw.Skipped) > 0 {
		u.fail("%s: %v", what, sw.Skipped[0])
	}
	for _, r := range sw.Results {
		u.events += r.Events
		u.forwarded += r.Forwarded
		u.drops += uint64(r.Drops)
		u.items += float64(r.Forwarded)
		d.u64(uint64(r.Drops))
		d.u64(r.Events)
		d.u64(r.Forwarded)
		d.report(r.Report)
		if r.Drops == 0 || r.Forwarded == 0 {
			u.fail("%s: mechanism never fired (drops=%d forwarded=%d)", what, r.Drops, r.Forwarded)
		}
		if r.Report.N != r.Drops {
			u.bad("%s: %d drops recorded but %d analysed", what, r.Drops, r.Report.N)
		}
		if r.Report.CoV <= 1 {
			u.bad("%s: interval CoV %.3f does not exceed the Poisson value 1", what, r.Report.CoV)
		}
	}
}

func fig2Unit(e *env, i int) unitOut {
	var u unitOut
	d := newDigest()
	// A 2 s warm-up (the flows' start spread) instead of the figure's 10 s:
	// every seed then records the slow-start overflow, so no unit comes back
	// with too few drops to analyse.
	const dur = 20 * sim.Second
	sw, err := core.SweepFigure2(core.Fig2Config{
		Seed: unitSeed(e.seed, i), Flows: 16, Duration: dur, Warmup: 2 * sim.Second,
	}, core.SweepOptions{Replications: 1, Workers: 1})
	foldSweep(&u, &d, "figure 2", sw, err, dur.Seconds())
	if err == nil {
		for _, r := range sw.Results {
			if !r.Report.RejectsPoisson {
				u.bad("figure 2: KS test does not reject Poisson (D=%.4f)", r.Report.KSDistance)
			}
		}
	}
	u.digest = uint64(d)
	return u
}

// dynamicScenarios are the registered worlds whose links change while
// they run, or whose transports are not TCP.
var dynamicScenarios = []string{
	"wifi-gilbert", "cellular-trace", "flaky-backbone",
	"gcc-vs-tcp-wifi", "gcc-cellular", "rft-wifi", "rft-fleet-dumbbell",
}

func dynamicUnit(e *env, i int) unitOut {
	var u unitOut
	d := newDigest()
	const dur = 30 * sim.Second
	for _, name := range dynamicScenarios {
		sw, err := core.SweepScenario(e.prefix+name, topo.ScenarioConfig{
			Seed: unitSeed(e.seed, i), Duration: dur,
		}, core.SweepOptions{Replications: 1, Workers: 1})
		foldSweep(&u, &d, name, sw, err, dur.Seconds())
	}
	u.digest = uint64(d)
	return u
}

const (
	probePaths    = 16
	probeDuration = 30 * sim.Second
	probeInterval = sim.Millisecond
)

func probeUnit(e *env, i int) unitOut {
	var u unitOut
	d := newDigest()
	u.simSecs = probePaths * 2 * probeDuration.Seconds()
	res, err := core.RunFigure4(core.Fig4Config{
		Seed: unitSeed(e.seed, i), Paths: probePaths,
		ProbeInterval: probeInterval, Duration: probeDuration, Workers: 1,
	})
	if err != nil {
		u.fail("figure 4: %v", err)
		return u
	}
	// Two runs per path (48 B and 400 B), one probe per interval.
	u.items = float64(res.PathsMeasured) * 2 * float64(probeDuration/probeInterval)
	u.events = res.Events
	u.drops = uint64(res.TotalLosses)
	u.paths, u.valid = res.PathsMeasured, res.PathsValidated
	if res.PathsMeasured != probePaths {
		u.bad("figure 4: measured %d paths, asked for %d", res.PathsMeasured, probePaths)
	}
	if res.TotalLosses == 0 || res.PathsAnalyzed == 0 {
		u.fail("figure 4: no losses analysed")
	}
	if res.Report.N != res.TotalLosses {
		u.bad("figure 4: %d losses over paths but %d in the merged report", res.TotalLosses, res.Report.N)
	}
	for _, v := range []int{res.PathsMeasured, res.PathsValidated, res.PathsAnalyzed, res.TotalLosses} {
		d.u64(uint64(v))
	}
	d.u64(res.Events)
	d.report(res.Report)
	u.digest = uint64(d)
	return u
}

func fleetScenarios(prefix string) []string {
	var out []string
	for _, n := range topo.Names() {
		if !strings.HasPrefix(n, tracePrefix) {
			out = append(out, prefix+n)
		}
	}
	return out
}

const (
	fleetWorlds   = 44
	fleetDuration = 4 * sim.Second
)

func fleetUnit(e *env, i int) unitOut {
	var u unitOut
	u.simSecs = fleetWorlds * fleetDuration.Seconds()
	rep, err := core.RunFleet(core.FleetConfig{
		Scenarios: fleetScenarios(e.prefix),
		Worlds:    fleetWorlds,
		Seed:      unitSeed(e.seed, i),
		Duration:  fleetDuration,
		Warmup:    sim.Second,
		RateSpan:  0.2, RTTSpan: 0.3, LossSpan: 0.2,
		Shards: e.shards,
	})
	if err != nil {
		u.fail("fleet: %v", err)
		return u
	}
	u.items = float64(rep.Worlds)
	u.events = rep.Events
	u.drops = uint64(rep.Drops)
	if rep.Skipped > 0 {
		u.fail("fleet: %d of %d worlds skipped: %s", rep.Skipped, fleetWorlds, strings.Join(rep.SkipSamples, "; "))
	}
	if rep.Worlds+rep.Skipped != fleetWorlds {
		u.bad("fleet: %d merged + %d skipped != %d worlds", rep.Worlds, rep.Skipped, fleetWorlds)
	}
	if rep.Aggregate.N != rep.Drops {
		u.bad("fleet: %d drops over worlds but %d in the pooled report", rep.Drops, rep.Aggregate.N)
	}
	if rep.Aggregate.CoV <= 1 {
		u.bad("fleet: pooled CoV %.3f does not exceed the Poisson value 1", rep.Aggregate.CoV)
	}
	// The fingerprint names its scenarios; the traced run registers them
	// under a prefix, which is not a simulated statistic.
	d := newDigest()
	d.str(strings.ReplaceAll(rep.Fingerprint(), tracePrefix, ""))
	u.digest = uint64(d)
	return u
}

// traceInputs are the two loss traces the trace-analysis workload pushes
// through the measurement stack, made from the run seed in set-up.
type traceInputs struct {
	bursty, null *trace.Recorder
	simSecs      float64 // simulated seconds the two traces span
}

const (
	traceEvents = 200_000
	traceRTT    = 50 * sim.Millisecond
	// The reservoir holds every interval of a 200k-event trace, so batch
	// and streaming KS statistics compare exactly.
	traceReservoir = 1 << 18
)

var traceCfg = analysis.Config{KSReservoir: traceReservoir}

// newTraceInputs generates the bursty trace from a Gilbert–Elliott chain
// sampled once per 100 µs packet slot, and the null trace as a
// homogeneous Poisson process — cumulative exponential gaps, Hohmann's
// IPPP recipe at constant intensity — with 10 losses per RTT.
func newTraceInputs(seed int64) *traceInputs {
	in := &traceInputs{bursty: &trace.Recorder{}, null: &trace.Recorder{}}
	ge := lossmodel.NewGilbertElliott(lossmodel.GEParams{PGB: 0.02, PBG: 0.2, KGood: 0, KBad: 0.8},
		sim.NewRand(sim.SubSeed(seed, -11)))
	const slot = 100 * sim.Microsecond
	var at sim.Time
	for n := int64(0); in.bursty.Len() < traceEvents; n++ {
		at = at.Add(slot)
		if ge.Lost() {
			in.bursty.Add(trace.LossEvent{At: at, Flow: int(n % 16), Seq: n, Size: 1000})
		}
	}
	in.simSecs = at.Seconds()
	rng := sim.NewRand(sim.SubSeed(seed, -12))
	at = 0
	for n := int64(0); n < traceEvents; n++ {
		at = at.Add(sim.Exponential(rng, traceRTT/10))
		in.null.Add(trace.LossEvent{At: at, Flow: int(n % 16), Seq: n, Size: 1000})
	}
	in.simSecs += at.Seconds()
	return in
}

// stageTimes sums host time per measurement stage across units.
type stageTimes struct {
	csv, batch, observe, finalize, absorb time.Duration
	losses                                int
}

// relClose is the streaming-vs-batch tolerance of the repository's
// differential test: the allowance for Welford moments and the Σc² form
// of the dispersion index associating differently.
func relClose(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= 1e-9*scale
}

// analyzeBoth pushes one trace through the lossstat path (CSV out, CSV
// in, batch analysis) and the sweep path (sink-mode recorder, streaming
// analyzer, cross-world aggregate), and checks that the two agree.
func analyzeBoth(e *env, u *unitOut, d *digest, what string, rec *trace.Recorder) (batch, pooled *analysis.Report) {
	span := func(name string) func() time.Duration {
		t0 := time.Now()
		id := e.tr.begin(name, e.tr.unitSpan(), 0)
		return func() time.Duration { e.tr.end(id); return time.Since(t0) }
	}

	done := span("trace.csv")
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		u.bad("%s: %v", what, err)
		return nil, nil
	}
	back, err := trace.ReadCSV(&buf)
	e.stage.csv += done()
	if err != nil {
		u.bad("%s: %v", what, err)
		return nil, nil
	}
	if back.Len() != rec.Len() {
		u.bad("%s: CSV round trip kept %d of %d events", what, back.Len(), rec.Len())
	}

	done = span("analysis.batch")
	batch, err = analysis.AnalyzeTrace(back, traceRTT, traceCfg)
	e.stage.batch += done()
	if err != nil {
		u.fail("%s: %v", what, err)
		return nil, nil
	}

	done = span("analysis.observe")
	an, err := analysis.NewStreaming(traceRTT, traceCfg)
	if err != nil {
		u.bad("%s: %v", what, err)
		return nil, nil
	}
	sink := &trace.Recorder{}
	sink.SetSink(an.Observe, false)
	for _, ev := range rec.Events() {
		sink.Add(ev)
	}
	e.stage.observe += done()

	done = span("analysis.finalize")
	stream, err := an.Finalize()
	e.stage.finalize += done()
	if err != nil {
		u.fail("%s: %v", what, err)
		return nil, nil
	}

	done = span("analysis.absorb")
	agg := analysis.NewAggregate(traceCfg)
	if err := agg.Absorb(an); err != nil {
		u.bad("%s: %v", what, err)
		return nil, nil
	}
	pooled, err = agg.Finalize()
	e.stage.absorb += done()
	if err != nil {
		u.fail("%s: %v", what, err)
		return nil, nil
	}
	e.stage.losses += rec.Len()

	for _, r := range []*analysis.Report{stream, pooled} {
		switch {
		case r.N != batch.N || r.Lambda != batch.Lambda ||
			r.FracBelow001 != batch.FracBelow001 || r.FracBelow025 != batch.FracBelow025 ||
			r.FracBelow1 != batch.FracBelow1 || r.Hist.Total() != batch.Hist.Total():
			u.bad("%s: streaming and batch counts differ (N %d/%d, lambda %v/%v)", what, r.N, batch.N, r.Lambda, batch.Lambda)
		case r.KSDistance != batch.KSDistance || r.RejectsPoisson != batch.RejectsPoisson:
			u.bad("%s: streaming KS %v differs from batch %v", what, r.KSDistance, batch.KSDistance)
		case !relClose(r.CoV, batch.CoV) || !relClose(r.IndexOfDispersion, batch.IndexOfDispersion):
			u.bad("%s: streaming CoV/IoD %v/%v beyond tolerance of batch %v/%v", what,
				r.CoV, r.IndexOfDispersion, batch.CoV, batch.IndexOfDispersion)
		}
	}
	if batch.N == 0 {
		u.fail("%s: zero losses analysed", what)
	}
	u.items += 2 * float64(rec.Len()) // one item per loss event per path
	u.drops += uint64(rec.Len())
	d.report(batch)
	d.report(pooled)
	return batch, pooled
}

func traceUnit(e *env, i int) unitOut {
	var u unitOut
	d := newDigest()
	u.simSecs = e.in.simSecs
	if b, _ := analyzeBoth(e, &u, &d, "bursty trace", e.in.bursty); b != nil && b.CoV <= 1 {
		u.bad("bursty trace: CoV %.3f does not exceed the Poisson value 1", b.CoV)
	}
	if n, _ := analyzeBoth(e, &u, &d, "poisson null", e.in.null); n != nil {
		if n.CoV < 0.9 || n.CoV > 1.1 {
			u.bad("poisson null: CoV %.4f outside 0.9–1.1", n.CoV)
		}
		if n.IndexOfDispersion < 0.9 || n.IndexOfDispersion > 1.1 {
			u.bad("poisson null: index of dispersion %.4f outside 0.9–1.1", n.IndexOfDispersion)
		}
		// The KS verdict on a true Poisson stream is printed, not asserted:
		// the false-reject rate is for the null-model calibration to pin.
		u.info = fmt.Sprintf("poisson null: cov=%.4f iod=%.4f ks=%.5f rejects_poisson=%v",
			n.CoV, n.IndexOfDispersion, n.KSDistance, n.RejectsPoisson)
	}
	u.digest = uint64(d)
	return u
}
