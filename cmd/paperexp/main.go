// Command paperexp regenerates every table and figure of the paper as text
// series. Each artifact has a sub-flag; -all runs the full evaluation with
// paper-scale parameters. The selected artifacts are independent simulated
// worlds, so they run concurrently through the internal/exp runner by
// default (each rendering into its own buffer, printed in artifact order —
// the output is identical to a sequential run); -seq streams them one by
// one instead.
//
// Usage:
//
//	paperexp -fig 2          # Figure 2: NS-2 inter-loss PDF
//	paperexp -fig 3          # Figure 3: Dummynet inter-loss PDF
//	paperexp -fig 4          # Figure 4: PlanetLab inter-loss PDF
//	paperexp -fig 5          # Eq. 1/2 visibility table (Figures 5/6 model)
//	paperexp -fig 7          # Figure 7: pacing vs NewReno throughput
//	paperexp -fig 8          # Figure 8: parallel transfer latency
//	paperexp -fig 1          # Table 1: PlanetLab sites
//	paperexp -fig 2,3,4      # several artifacts, concurrently
//	paperexp -xtfrc          # extension: TFRC vs NewReno competition
//	paperexp -xecn           # extension: ECN signal coverage
//	paperexp -xshowdown      # extension: loss-based vs delay-based showdown
//	paperexp -scenario parking-lot   # one registered topology scenario
//	paperexp -scenario all           # the whole scenario catalog
//	paperexp -all            # everything, scenario catalog included
//	paperexp -all -reps 4    # loss-PDF artifacts replicated, with mean ± 95% CI
//	paperexp -fig 4 -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	                         # profile a run for hot-path work
package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/planetlab"
	"repro/internal/sim"
	"repro/internal/tcptrace"
	"repro/internal/topo"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// artifact is one paper table/figure: a name and a renderer writing the
// text series to w. Renderers report how many simulated events their
// worlds executed (sim.Scheduler.Fired, summed over replications), so the
// runner can print per-artifact events/sec without the bench suite;
// artifacts with no simulated world (Table 1, the Eq. 1/2 model) report 0
// and get no throughput line.
type artifact struct {
	name string
	fn   func(w io.Writer) (uint64, error)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("paperexp", stderr)
	var (
		fig      = fs.String("fig", "", "paper artifacts to regenerate, comma-separated (1=Table 1, 2,3,4,7,8=figures, 5/6=Eq.1/2 table)")
		all      = fs.Bool("all", false, "run everything, scenario catalog included")
		xtfrc    = fs.Bool("xtfrc", false, "run the TFRC competition extension")
		xecn     = fs.Bool("xecn", false, "run the ECN coverage extension")
		xtrace   = fs.Bool("xtrace", false, "run the TCP-trace methodology comparison")
		xshow    = fs.Bool("xshowdown", false, "run the loss-based vs delay-based controller showdown")
		xxfer    = fs.Bool("xtransfers", false, "run the reliable-file-transfer FCT experiment")
		scenario = fs.String("scenario", "", "registered topology scenarios to run, comma-separated; \"all\" runs the catalog, \"list\" prints it")
		seed     = fs.Int64("seed", 1, "experiment seed")
		quick    = fs.Bool("quick", false, "scaled-down parameters (seconds instead of minutes)")
		ascii    = fs.Bool("ascii", false, "ASCII plots for the PDF figures")
		reps     = fs.Int("reps", 1, "replications per loss-PDF artifact (adds a mean ± 95% CI aggregate)")
		seq      = fs.Bool("seq", false, "run artifacts sequentially, streaming output")
		workers  = fs.Int("workers", 0, "concurrent artifacts (0 = GOMAXPROCS)")
		cpuprof  = fs.String("cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
		memprof  = fs.String("memprofile", "", "write a pprof heap profile (after GC) to this file on exit")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	if *reps < 1 {
		return cli.Usagef(stderr, "paperexp", "-reps must be at least 1, got %d", *reps)
	}
	// Profiling hooks, so hot-path work on the experiment drivers starts
	// from a measured profile instead of a guess:
	//
	//	paperexp -fig 4 -quick -cpuprofile cpu.pprof -memprofile mem.pprof
	//	go tool pprof cpu.pprof
	if *cpuprof != "" {
		f, err := os.Create(*cpuprof)
		if err != nil {
			fmt.Fprintf(stderr, "paperexp: -cpuprofile: %v\n", err)
			return 2
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "paperexp: -cpuprofile: %v\n", err)
			f.Close()
			return 2
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memprof != "" {
		// Validate the path up front so a typo fails before minutes of
		// simulation, not after.
		f, err := os.Create(*memprof)
		if err != nil {
			fmt.Fprintf(stderr, "paperexp: -memprofile: %v\n", err)
			return 2
		}
		defer func() {
			runtime.GC() // settle the heap so the profile shows live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(stderr, "paperexp: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}
	figs := map[int]bool{}
	if *fig != "" {
		for _, part := range strings.Split(*fig, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(stderr, "paperexp: bad -fig value %q (want numbers like 2,3,4)\n", part)
				return 2
			}
			if n < 1 || n > 8 {
				fmt.Fprintf(stderr, "paperexp: unknown -fig value %d (valid artifacts: 1-8)\n", n)
				return 2
			}
			figs[n] = true
		}
	}
	var scenarioNames []string
	switch *scenario {
	case "":
	case "all":
		scenarioNames = topo.Names()
	case "list":
		for _, sc := range topo.Scenarios() {
			fmt.Fprintf(stdout, "%-14s %s (%s)\n", sc.Name, sc.Description, sc.Topology)
		}
		return 0
	default:
		for _, part := range strings.Split(*scenario, ",") {
			name := strings.TrimSpace(part)
			if _, ok := topo.Lookup(name); !ok {
				fmt.Fprintf(stderr, "paperexp: unknown scenario %q (registered: %s)\n",
					name, strings.Join(topo.Names(), ", "))
				return 2
			}
			scenarioNames = append(scenarioNames, name)
		}
	}
	// -all implies the whole catalog, but an explicit -scenario selection
	// narrows it rather than being silently overridden.
	if *all && *scenario == "" {
		scenarioNames = topo.Names()
	}

	e := &executor{seed: *seed, quick: *quick, ascii: *ascii, reps: *reps, workers: *workers}
	var arts []artifact
	add := func(cond bool, name string, fn func(io.Writer) (uint64, error)) {
		if cond {
			arts = append(arts, artifact{name, fn})
		}
	}
	add(*all || figs[1], "Table 1: PlanetLab sites", e.table1)
	add(*all || figs[2], "Figure 2: inter-loss PDF (NS-2)", e.figure2)
	add(*all || figs[3], "Figure 3: inter-loss PDF (Dummynet)", e.figure3)
	add(*all || figs[4], "Figure 4: inter-loss PDF (PlanetLab)", e.figure4)
	add(*all || figs[5] || figs[6], "Eq. 1/2: loss-event visibility", e.eq12)
	add(*all || figs[7], "Figure 7: pacing vs NewReno", e.figure7)
	add(*all || figs[8], "Figure 8: parallel-transfer latency", e.figure8)
	add(*all || *xtfrc, "Extension: TFRC vs NewReno", e.tfrc)
	add(*all || *xecn, "Extension: ECN signal coverage", e.ecn)
	add(*all || *xtrace, "Future work: TCP-trace methodology", e.tcptrace)
	add(*all || *xshow, "Extension: loss-based vs delay-based showdown", e.showdown)
	add(*all || *xxfer, "Extension: reliable-file-transfer FCT", e.transfers)
	for _, name := range scenarioNames {
		sc, _ := topo.Lookup(name)
		add(true, "Scenario: "+sc.Name, func(w io.Writer) (uint64, error) { return e.scenario(w, sc) })
	}

	if len(arts) == 0 {
		fs.Usage()
		return 2
	}

	if *seq || len(arts) == 1 {
		// Like the parallel path, a failing artifact is reported and the
		// rest still run; only the exit code remembers the failure.
		code := 0
		for _, a := range arts {
			fmt.Fprintf(stdout, "==== %s ====\n", a.name)
			start := time.Now()
			events, err := a.fn(stdout)
			if err != nil {
				fmt.Fprintf(stderr, "paperexp: %s: %v\n", a.name, err)
				code = 1
				continue
			}
			elapsed := time.Since(start)
			fmt.Fprintf(stdout, "---- %s done in %v%s ----\n\n", a.name,
				elapsed.Round(time.Millisecond), rateSuffix(events, elapsed))
		}
		return code
	}

	// Parallel: every artifact renders into its own buffer on the worker
	// pool; buffers are flushed in artifact order, so the byte stream
	// matches the sequential run (modulo the timing lines).
	type rendered struct {
		out     bytes.Buffer
		elapsed time.Duration
		events  uint64
	}
	results := exp.Sweep(exp.Options{Seed: *seed, Workers: *workers}, arts,
		func(r exp.Run[artifact], _ *exp.Arena) (*rendered, error) {
			var rd rendered
			start := time.Now()
			events, err := r.Config.fn(&rd.out)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", r.Config.name, err)
			}
			rd.elapsed = time.Since(start)
			rd.events = events
			return &rd, nil
		})
	code := 0
	for i, r := range results {
		if r.Err != nil {
			fmt.Fprintf(stderr, "paperexp: %v\n", r.Err)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "==== %s ====\n", arts[i].name)
		stdout.Write(r.Value.out.Bytes())
		fmt.Fprintf(stdout, "---- %s done in %v%s ----\n\n", arts[i].name,
			r.Value.elapsed.Round(time.Millisecond), rateSuffix(r.Value.events, r.Value.elapsed))
	}
	return code
}

// rateSuffix renders an artifact's simulated-event throughput: the number
// of scheduler events its worlds executed and the wall-clock rate, the
// sweep-throughput visibility the bench suite otherwise provides.
func rateSuffix(events uint64, elapsed time.Duration) string {
	if events == 0 || elapsed <= 0 {
		return ""
	}
	return fmt.Sprintf(" (%d simulated events, %.2fM events/s)",
		events, float64(events)/elapsed.Seconds()/1e6)
}

type executor struct {
	seed    int64
	quick   bool
	ascii   bool
	reps    int
	workers int
}

// sweepOpts propagates the -workers bound into an artifact's inner sweep,
// so `paperexp -workers 1` really is sequential instead of nesting a
// GOMAXPROCS pool inside every artifact.
func (e *executor) sweepOpts() core.SweepOptions {
	return core.SweepOptions{Replications: e.replications(), Workers: e.workers}
}

func (e *executor) dur(full, quick sim.Duration) sim.Duration {
	if e.quick {
		return quick
	}
	return full
}

func (e *executor) table1(w io.Writer) (uint64, error) {
	return 0, core.WriteSites(w, planetlab.Sites())
}

// writeScenario renders one loss-PDF scenario result, or — when -reps asks
// for replications — the first replication plus the cross-replication
// aggregate.
func (e *executor) writeScenario(w io.Writer, sweep *core.ScenarioSweep) error {
	res := sweep.Results[0]
	if e.ascii {
		if err := core.WriteASCIIPDF(w, res.Report, 25); err != nil {
			return err
		}
	} else if err := core.WritePDF(w, res.Report); err != nil {
		return err
	}
	for _, skip := range sweep.Skipped {
		if _, err := fmt.Fprintf(w, "# skipped %v\n", skip); err != nil {
			return err
		}
	}
	// Batching efficiency: scheduler events per forwarded packet, the ratio
	// the port's delivery rings and serialization chains drive down (see
	// ARCHITECTURE.md, "Link service batching").
	if sweep.Forwarded > 0 {
		if _, err := fmt.Fprintf(w, "# batching events=%d forwarded=%d events_per_pkt=%.2f\n",
			sweep.Events, sweep.Forwarded,
			float64(sweep.Events)/float64(sweep.Forwarded)); err != nil {
			return err
		}
	}
	if len(sweep.Results) > 1 {
		s := sweep.Summary
		_, err := fmt.Fprintf(w,
			"# aggregate reps=%d frac<0.01RTT=%.3f±%.3f frac<1RTT=%.3f±%.3f cov=%.1f±%.1f reject_poisson=%.0f%%\n",
			s.Replications,
			s.FracBelow001.Mean, s.FracBelow001.CI95,
			s.FracBelow1.Mean, s.FracBelow1.CI95,
			s.CoV.Mean, s.CoV.CI95,
			100*s.RejectFrac)
		return err
	}
	return nil
}

// replications normalizes the -reps flag; replication 0 of a sweep runs
// the configured seed itself, so -reps 1 is exactly the classic single
// figure run.
func (e *executor) replications() int {
	if e.reps < 1 {
		return 1
	}
	return e.reps
}

// scenario renders one registered topology scenario: its catalog line,
// then the same loss-PDF report the dumbbell figures produce.
func (e *executor) scenario(w io.Writer, sc topo.Scenario) (uint64, error) {
	if _, err := fmt.Fprintf(w, "# %s: %s\n# topology: %s\n",
		sc.Name, sc.Description, sc.Topology); err != nil {
		return 0, err
	}
	sweep, err := core.SweepScenario(sc.Name, topo.ScenarioConfig{
		Seed:     e.seed,
		Duration: e.dur(60*sim.Second, 15*sim.Second),
		Warmup:   e.dur(10*sim.Second, 3*sim.Second),
	}, e.sweepOpts())
	if err != nil {
		return 0, err
	}
	return sweep.Events, e.writeScenario(w, sweep)
}

func (e *executor) figure2(w io.Writer) (uint64, error) {
	sweep, err := core.SweepFigure2(core.Fig2Config{
		Seed:     e.seed,
		Flows:    16,
		Duration: e.dur(120*sim.Second, 30*sim.Second),
	}, e.sweepOpts())
	if err != nil {
		return 0, err
	}
	return sweep.Events, e.writeScenario(w, sweep)
}

func (e *executor) figure3(w io.Writer) (uint64, error) {
	sweep, err := core.SweepFigure3(core.Fig3Config{
		Seed:     e.seed,
		Duration: e.dur(120*sim.Second, 30*sim.Second),
	}, e.sweepOpts())
	if err != nil {
		return 0, err
	}
	return sweep.Events, e.writeScenario(w, sweep)
}

func (e *executor) figure4(w io.Writer) (uint64, error) {
	res, err := core.RunFigure4(core.Fig4Config{
		Seed:     e.seed,
		Paths:    ifQuick(e.quick, 12, 60),
		Duration: e.dur(5*60*sim.Second, 30*sim.Second),
		Workers:  e.workers,
	})
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "# paths: measured=%d validated=%d analyzed=%d losses=%d\n",
		res.PathsMeasured, res.PathsValidated, res.PathsAnalyzed, res.TotalLosses)
	if e.ascii {
		return res.Events, core.WriteASCIIPDF(w, res.Report, 25)
	}
	return res.Events, core.WritePDF(w, res.Report)
}

func (e *executor) eq12(w io.Writer) (uint64, error) {
	rows := core.VisibilityTable(16, 10, []int{1, 2, 4, 8, 16, 32, 64, 128}, 2000, e.seed)
	return 0, core.WriteVisibilityTable(w, rows)
}

func (e *executor) figure7(w io.Writer) (uint64, error) {
	sweep, err := core.SweepFigure7(core.Fig7Config{
		Seed:     e.seed,
		Duration: e.dur(40*sim.Second, 20*sim.Second),
	}, e.sweepOpts())
	if err != nil {
		return 0, err
	}
	if err := core.WriteFig7(w, sweep.Results[0], sim.Second); err != nil {
		return 0, err
	}
	if len(sweep.Results) > 1 {
		d := sweep.Deficit
		_, err = fmt.Fprintf(w, "# aggregate reps=%d deficit=%.3f±%.3f\n", d.N, d.Mean, d.CI95)
	}
	return sweep.Events, err
}

func (e *executor) figure8(w io.Writer) (uint64, error) {
	cfg := core.Fig8Config{Seed: e.seed, Workers: e.workers}
	if e.quick {
		cfg.TotalBytes = 8 << 20
		cfg.Runs = 3
	}
	res := core.RunFigure8(cfg)
	return res.Events, core.WriteFig8(w, res)
}

func (e *executor) tfrc(w io.Writer) (uint64, error) {
	sweep, err := core.SweepTFRCCompetition(core.TFRCCompConfig{
		Seed:     e.seed,
		Duration: e.dur(60*sim.Second, 20*sim.Second),
	}, e.sweepOpts())
	if err != nil {
		return 0, err
	}
	res := sweep.Results[0]
	fmt.Fprintf(w, "newreno_bytes=%d tfrc_bytes=%d deficit=%.1f%% tfrc_loss_rate=%.4f\n",
		res.NewRenoBytes, res.TFRCBytes, 100*res.Deficit, res.TFRCLossRate)
	if len(sweep.Results) > 1 {
		d := sweep.Deficit
		fmt.Fprintf(w, "# aggregate reps=%d deficit=%.3f±%.3f\n", d.N, d.Mean, d.CI95)
	}
	return sweep.Events, nil
}

func (e *executor) ecn(w io.Writer) (uint64, error) {
	fmt.Fprintln(w, "# mode\tcoverage\tepochs\tpkts\tfairness")
	modes := []core.ECNMode{core.ModeDropTail, core.ModeRedECN, core.ModePersistentECN}
	results, err := core.RunECNComparison(core.ECNCoverageConfig{
		Seed:     e.seed,
		Duration: e.dur(30*sim.Second, 15*sim.Second),
	}, modes, e.workers)
	if err != nil {
		return 0, err
	}
	var events uint64
	for _, res := range results {
		fmt.Fprintf(w, "%v\t%.2f\t%d\t%d\t%.3f\n",
			res.Mode, res.CoverageFraction, res.Epochs, res.AggregatePkts, res.FairnessIndex)
		events += res.Events
	}
	return events, nil
}

// showdown runs the loss-vs-delay controller comparison across the
// time-varying showdown worlds (scenarios.ShowdownShapes) and renders the
// figure-style table. The full duration covers one complete dilated
// cellular trace loop plus warmup, so every fade depth in the schedule
// contributes.
func (e *executor) showdown(w io.Writer) (uint64, error) {
	res, err := core.SweepShowdown(topo.ScenarioConfig{
		Seed:     e.seed,
		Duration: e.dur(125*sim.Second, 25*sim.Second),
		Warmup:   5 * sim.Second,
	}, e.sweepOpts())
	if err != nil {
		return 0, err
	}
	return res.Events, core.WriteShowdown(w, res)
}

// transfers runs the reliable-file-transfer experiment: every RFT
// scenario replicated across derived seeds, reported as the merged
// flow-completion-time distribution (p50/p95/p99), per-transfer goodput
// and retransmission ratio.
func (e *executor) transfers(w io.Writer) (uint64, error) {
	res, err := core.SweepTransfers(topo.ScenarioConfig{
		Seed:     e.seed,
		Duration: e.dur(120*sim.Second, 30*sim.Second),
		Warmup:   5 * sim.Second,
	}, e.sweepOpts())
	if err != nil {
		return 0, err
	}
	return res.Events, core.WriteTransfers(w, res)
}

func (e *executor) tcptrace(w io.Writer) (uint64, error) {
	res, err := tcptrace.Run(tcptrace.Config{
		Seed:     e.seed,
		Flows:    16,
		Duration: e.dur(60*sim.Second, 20*sim.Second),
	})
	if err != nil {
		return 0, err
	}
	fmt.Fprintf(w, "true_drops=%d tcp_trace_events=%d\n", res.Drops, res.Retransmissions)
	fmt.Fprintf(w, "truth:     frac<0.01RTT=%.3f CoV=%.1f\n",
		res.Truth.FracBelow001, res.Truth.CoV)
	fmt.Fprintf(w, "tcp-trace: frac<0.01RTT=%.3f CoV=%.1f\n",
		res.FromTCP.FracBelow001, res.FromTCP.CoV)
	return res.Events, nil
}

func ifQuick(quick bool, a, b int) int {
	if quick {
		return a
	}
	return b
}
