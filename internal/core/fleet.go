package core

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/apps/rft"
	"repro/internal/exp"
	"repro/internal/sim"
	"repro/internal/topo"
)

// FleetConfig describes a fleet campaign: many SubSeed-jittered instances
// of the registered scenarios, run across all cores and merged into one
// bounded aggregate. A fleet is a pure function of everything here except
// Shards, which only changes how fast it finishes — the report's
// Fingerprint is byte-identical for any shard count.
type FleetConfig struct {
	// Scenarios names the registered scenarios to cycle through (world i
	// runs Scenarios[i%len]). Empty means every registered scenario, in
	// name order. A fleet never retains traces.
	Scenarios []string
	// Worlds is the fleet size (default 64).
	Worlds int
	// Seed is the fleet's base seed; world i runs with sim.SubSeed(Seed, i).
	Seed int64
	// Duration and Warmup are handed to every world (scenario defaults —
	// 60 s / 10 s — when zero). Short worlds make big fleets: a million
	// flows is thousands of small worlds, not hundreds of huge ones.
	Duration sim.Duration
	Warmup   sim.Duration
	// PktSize is the transport segment size (scenario default when zero).
	PktSize int

	// RateSpan, RTTSpan and LossSpan widen each scenario from a point to a
	// parameter neighborhood: world i draws its topo jitter scales
	// uniformly from [1-span, 1+span], each dimension from its own
	// SubSeed stream of the world seed. Zero (the default) pins that
	// dimension to nominal as an exact no-op. Must lie in [0, 1).
	RateSpan float64
	RTTSpan  float64
	LossSpan float64

	// Shards bounds worker concurrency (0 = GOMAXPROCS, 1 = sequential).
	// Never changes the result, only the wall clock.
	Shards int
}

func (c *FleetConfig) fillDefaults() {
	if c.Worlds == 0 {
		c.Worlds = 64
	}
}

// validate rejects configurations the fleet cannot run.
func (c *FleetConfig) validate() error {
	if c.Worlds < 1 {
		return fmt.Errorf("core: fleet needs at least one world, got %d", c.Worlds)
	}
	for _, s := range []struct {
		name string
		v    float64
	}{{"rate", c.RateSpan}, {"rtt", c.RTTSpan}, {"loss", c.LossSpan}} {
		if s.v < 0 || s.v >= 1 || math.IsNaN(s.v) {
			return fmt.Errorf("core: %s span %v outside [0, 1)", s.name, s.v)
		}
	}
	return nil
}

// Jitter-dimension tags for the per-world scale draws. Negative so they
// can never collide with the non-negative tags scenarios use internally
// on the same world seed (world stream 0, noise 1, network 2, flows
// 1000+i).
const (
	fleetTagRate = -1
	fleetTagRTT  = -2
	fleetTagLoss = -3
)

// jitterScale draws one world's scale for one dimension: uniform in
// [1-span, 1+span] from the dimension's own SubSeed stream, so enabling
// or widening one span never shifts another dimension's draws. A zero
// span returns exactly 1 — the scale path is skipped entirely.
func jitterScale(seed, tag int64, span float64) float64 {
	if span == 0 {
		return 1
	}
	u := sim.NewRand(sim.SubSeed(seed, tag)).Float64()
	return 1 + span*(2*u-1)
}

// FleetReport is the outcome of a fleet campaign. Every field except
// Elapsed and EventsPerSec is deterministic — a pure function of the
// FleetConfig minus Shards — and Fingerprint renders exactly those
// fields, so equality of fingerprints is the shard-invariance check.
type FleetReport struct {
	// Scenarios is the resolved scenario cycle.
	Scenarios []string
	// Worlds is the number of worlds merged into the aggregate; Skipped
	// counts worlds whose run failed (typically: too quiet to analyze).
	// SkipSamples retains the first few skip reasons for diagnosis —
	// bounded, like everything else here, regardless of fleet size.
	Worlds      int
	Skipped     int
	SkipSamples []string
	// SkippedTooFewDrops, SkippedPanics and SkippedOther split Skipped by
	// cause: a world too quiet to analyze (topo.ErrTooFewDrops), a world
	// whose run panicked, and anything else. Deterministic but diagnostic,
	// so Fingerprint leaves them out (like AmbiguousTies).
	SkippedTooFewDrops int
	SkippedPanics      int
	SkippedOther       int
	// Flows and Drops total the traffic sources and recorded losses
	// across merged worlds; Events totals the simulated events.
	Flows  int
	Drops  int
	Events uint64
	// AmbiguousTies totals the worlds' ScenarioResult.AmbiguousTies. It is
	// deterministic but diagnostic, so Fingerprint leaves it out.
	AmbiguousTies uint64
	// Aggregate is the pooled burstiness report (analysis.Aggregate);
	// KSExact reports whether its KS statistic covers every interval.
	Aggregate *analysis.Report
	KSExact   bool
	// Bursts pools the per-world RTT-clustered loss bursts.
	Bursts analysis.BurstStats
	// Transfers pools the reliable-file-transfer outcomes of every merged
	// world that ran FlowRFT flows (nil when none did): the FCT sample and
	// moments a fleet reports percentiles over millions of transfers from.
	Transfers *rft.TransferAgg
	// CoVMin and CoVMax bound the per-world CoV across merged worlds —
	// the spread the pooled CoV summarizes.
	CoVMin, CoVMax float64
	// Elapsed is the wall-clock time of the campaign and EventsPerSec
	// the aggregate simulated-event throughput (Events / Elapsed).
	// Excluded from Fingerprint.
	Elapsed      time.Duration
	EventsPerSec float64
}

// foldFloat mixes a float64 into an FNV-style fingerprint fold,
// bit-exactly.
func foldFloat(h uint64, x float64) uint64 {
	return (h ^ math.Float64bits(x)) * 1099511628211
}

// Fingerprint renders the report's deterministic fields, hashing the
// bulky vectors (histogram bins, reservoir intervals) bit-exactly. Two
// runs of the same FleetConfig produce equal fingerprints for ANY shard
// counts — the fleet analogue of the sweep worker-count invariance —
// and the shard-invariance test pins exactly that.
func (r *FleetReport) Fingerprint() string {
	a := r.Aggregate
	var hh, ih uint64 = 14695981039346656037, 14695981039346656037
	for i := 0; i < a.Hist.NumBins(); i++ {
		hh = (hh ^ uint64(a.Hist.Count(i))) * 1099511628211
	}
	for _, v := range a.Intervals {
		ih = foldFloat(ih, v)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenarios=%s worlds=%d skipped=%d flows=%d drops=%d events=%d\n",
		strings.Join(r.Scenarios, ","), r.Worlds, r.Skipped, r.Flows, r.Drops, r.Events)
	fmt.Fprintf(&b, "n=%d rtt=%v lambda=%v frac001=%v frac025=%v frac1=%v\n",
		a.N, a.RTT, a.Lambda, a.FracBelow001, a.FracBelow025, a.FracBelow1)
	fmt.Fprintf(&b, "iod=%v cov=%v covmin=%v covmax=%v ks=%v ksexact=%v rejects=%v\n",
		a.IndexOfDispersion, a.CoV, r.CoVMin, r.CoVMax, a.KSDistance, r.KSExact, a.RejectsPoisson)
	fmt.Fprintf(&b, "bursts=%d meansize=%v meanflows=%v maxsize=%d singleton=%v\n",
		r.Bursts.Bursts, r.Bursts.MeanSize, r.Bursts.MeanFlows, r.Bursts.MaxSize, r.Bursts.SingletonFrac)
	fmt.Fprintf(&b, "hist=%d:%016x intervals=%d:%016x\n",
		a.Hist.Total(), hh, len(a.Intervals), ih)
	if t := r.Transfers; t != nil {
		var sh uint64 = 14695981039346656037
		for _, v := range t.Sample.Items() {
			sh = foldFloat(sh, v)
		}
		fmt.Fprintf(&b, "transfers=%d bytes=%d fctmean=%v sent=%d retrans=%d sample=%d:%016x\n",
			t.Transfers, t.Bytes, t.FCT.Mean, t.Sent, t.Retransmitted, len(t.Sample.Items()), sh)
	}
	return b.String()
}

// errWorldPanicked marks a world whose run panicked, so the skip tally can
// tell a crashed world from a quiet one.
var errWorldPanicked = errors.New("world panicked")

// runWorld runs one fleet world, reporting a panic as that world's error.
func runWorld(sc topo.Scenario, cfg topo.ScenarioConfig, a *exp.Arena) (res *topo.ScenarioResult, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%w: %v", errWorldPanicked, p)
		}
	}()
	return sc.RunIn(cfg, a)
}

// countSkip tallies one skipped world under its cause.
func (r *FleetReport) countSkip(err error) {
	r.Skipped++
	switch {
	case errors.Is(err, topo.ErrTooFewDrops):
		r.SkippedTooFewDrops++
	case errors.Is(err, errWorldPanicked):
		r.SkippedPanics++
	default:
		r.SkippedOther++
	}
}

// RunFleet executes a fleet campaign: Worlds scenario instances, each on
// its own SubSeed with its own jitter draws, run across Shards workers on
// pooled arenas and merged in world order through analysis.Aggregate —
// the exp.Fleet turnstile keeps memory bounded by the shard count and the
// result invariant to it. A world that fails to produce an analyzable
// loss trace is counted in Skipped, not fatal; RunFleet errors only when
// configuration is invalid or every world was skipped.
func RunFleet(cfg FleetConfig) (*FleetReport, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	names := cfg.Scenarios
	if len(names) == 0 {
		names = topo.Names()
	}
	scs := make([]topo.Scenario, len(names))
	for i, name := range names {
		sc, err := lookupScenario(name)
		if err != nil {
			return nil, err
		}
		scs[i] = sc
	}

	rep := &FleetReport{Scenarios: names, CoVMin: math.Inf(1), CoVMax: math.Inf(-1)}
	agg := analysis.NewAggregate(analysis.Config{})
	var bursts analysis.BurstAgg
	var skipErrs []error

	start := time.Now()
	err := exp.Fleet(exp.FleetOptions{Seed: cfg.Seed, Shards: cfg.Shards}, cfg.Worlds,
		func(i int, seed int64, a *exp.Arena) (*topo.ScenarioResult, error) {
			c := topo.ScenarioConfig{
				Seed:      seed,
				Duration:  cfg.Duration,
				Warmup:    cfg.Warmup,
				PktSize:   cfg.PktSize,
				RateScale: jitterScale(seed, fleetTagRate, cfg.RateSpan),
				RTTScale:  jitterScale(seed, fleetTagRTT, cfg.RTTSpan),
				LossScale: jitterScale(seed, fleetTagLoss, cfg.LossSpan),
			}
			return runWorld(scs[i%len(scs)], c, a)
		},
		func(i int, seed int64, v *topo.ScenarioResult, err error) error {
			if err != nil {
				rep.countSkip(err)
				// Keep a bounded sample of reasons; the count is complete.
				if len(rep.SkipSamples) < 8 {
					rep.SkipSamples = append(rep.SkipSamples,
						fmt.Sprintf("world %d (%s, seed %d): %v", i, scs[i%len(scs)].Name, seed, err))
					skipErrs = append(skipErrs, err)
				}
				return nil
			}
			if v.Analyzer == nil {
				return fmt.Errorf("core: world %d (%s) returned no analyzer", i, scs[i%len(scs)].Name)
			}
			// The analyzer points into the worker's arena; absorb it here,
			// on the worker goroutine, before the arena's next world.
			if err := agg.Absorb(v.Analyzer); err != nil {
				return fmt.Errorf("core: world %d (%s): %w", i, scs[i%len(scs)].Name, err)
			}
			bursts.Add(v.Bursts)
			// Transfer aggregates are detached values; the world-order
			// turnstile makes this merge shard-invariant like the rest.
			if v.Transfers != nil {
				if rep.Transfers == nil {
					rep.Transfers = rft.NewTransferAgg()
				}
				rep.Transfers.Merge(v.Transfers)
			}
			rep.Worlds++
			rep.Flows += v.Flows
			rep.Drops += v.Drops
			rep.Events += v.Events
			rep.AmbiguousTies += v.AmbiguousTies
			rep.CoVMin = math.Min(rep.CoVMin, v.Report.CoV)
			rep.CoVMax = math.Max(rep.CoVMax, v.Report.CoV)
			return nil
		})
	if err != nil {
		return nil, err
	}
	if rep.Worlds == 0 {
		return nil, fmt.Errorf("core: every fleet world was skipped: %w", errors.Join(skipErrs...))
	}
	pooled, err := agg.Finalize()
	if err != nil {
		return nil, err
	}
	rep.Aggregate = pooled.Clone() // detach from the aggregate's scratch
	rep.KSExact = agg.KSExact()
	rep.Bursts = bursts.Stats()
	rep.Elapsed = time.Since(start)
	if secs := rep.Elapsed.Seconds(); secs > 0 {
		rep.EventsPerSec = float64(rep.Events) / secs
	}
	return rep, nil
}

// WriteFleet renders a fleet report: the campaign totals and throughput,
// then the pooled burstiness headline in the same vocabulary as WritePDF.
func WriteFleet(w io.Writer, r *FleetReport) error {
	a := r.Aggregate
	if _, err := fmt.Fprintf(w,
		"# fleet worlds=%d skipped=%d (too_few_drops=%d panics=%d other=%d) scenarios=%d flows=%d drops=%d events=%d ambiguous_ties=%d elapsed=%.2fs events_per_sec=%.3g\n",
		r.Worlds, r.Skipped, r.SkippedTooFewDrops, r.SkippedPanics, r.SkippedOther,
		len(r.Scenarios), r.Flows, r.Drops, r.Events, r.AmbiguousTies,
		r.Elapsed.Seconds(), r.EventsPerSec); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"# losses=%d lambda=%.3f/RTT frac<0.01RTT=%.3f frac<0.25RTT=%.3f frac<1RTT=%.3f iod=%.1f cov=%.1f cov_range=[%.1f,%.1f] ks=%.3f ks_exact=%v rejects_poisson=%v\n",
		a.N, a.Lambda, a.FracBelow001, a.FracBelow025, a.FracBelow1,
		a.IndexOfDispersion, a.CoV, r.CoVMin, r.CoVMax,
		a.KSDistance, r.KSExact, a.RejectsPoisson); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"# bursts=%d mean_size=%.2f mean_flows=%.2f max_size=%d singleton_frac=%.3f\n",
		r.Bursts.Bursts, r.Bursts.MeanSize, r.Bursts.MeanFlows,
		r.Bursts.MaxSize, r.Bursts.SingletonFrac); err != nil {
		return err
	}
	if t := r.Transfers; t != nil {
		if _, err := fmt.Fprintf(w,
			"# transfers=%d fct_p50=%.0fms fct_p95=%.0fms fct_p99=%.0fms goodput=%.2fMbps retrans_ratio=%.4f\n",
			t.Transfers, t.FCTQuantile(0.50)*1e3, t.FCTQuantile(0.95)*1e3, t.FCTQuantile(0.99)*1e3,
			t.Goodput.Mean/1e6, t.RetransRatio()); err != nil {
			return err
		}
	}
	for _, s := range r.SkipSamples {
		if _, err := fmt.Fprintf(w, "# skipped: %s\n", s); err != nil {
			return err
		}
	}
	return nil
}
