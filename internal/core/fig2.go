package core

import (
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/topo/scenarios"
)

// Fig2Config reproduces the paper's NS-2 setup (Figure 1): a 100 Mbps
// DropTail bottleneck shared by N TCP flows with access latencies drawn
// uniformly from [2 ms, 200 ms], plus 50 two-way exponential on–off noise
// flows averaging 10% of capacity, with 1000-byte segments and the flow
// starts staggered over 2 s (see scenarios.NS2Dumbbell).
type Fig2Config struct {
	Seed  int64
	Flows int // 2, 4, 8, 16 or 32 in the paper
	// BufferBDPFrac sizes the bottleneck buffer as a fraction of the
	// BDP at the mean RTT (paper sweeps 1/8 … 2; default 0.5).
	BufferBDPFrac float64
	NoiseFraction float64      // default 0.10 of capacity
	Duration      sim.Duration // default 60 s
	// Warmup discards drops before this time (slow-start transient).
	Warmup sim.Duration // default 10 s
	// RED replaces the DropTail bottleneck with a RED queue (minTh =
	// buffer/6, maxTh = buffer/2, maxP = 0.1) — the paper's suggested
	// de-bursting remedy, used by the ablation bench.
	RED bool
}

func (c *Fig2Config) fillDefaults() {
	if c.Flows == 0 {
		c.Flows = 16
	}
	if c.BufferBDPFrac == 0 {
		c.BufferBDPFrac = 0.5
	}
	if c.NoiseFraction == 0 {
		c.NoiseFraction = 0.10
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * sim.Second
	}
}

// ScenarioResult is the outcome of one loss-trace run — the figures and
// the registered scenarios share it.
type ScenarioResult = topo.ScenarioResult

// RunFigure2 executes the NS-2-style scenario on a fresh arena and
// analyzes the bottleneck drop trace, which is retained in the result;
// sweeps go through runFigure2 with a per-worker arena instead.
func RunFigure2(cfg Fig2Config) (*ScenarioResult, error) {
	return runFigure2(cfg, nil)
}

// runFigure2 builds and runs one Figure-2 world on the arena (nil: a
// fresh one, see topo.NewWorld): the registered dumbbell's world at the
// config's flow count, buffer, noise load and queue.
func runFigure2(cfg Fig2Config, a *exp.Arena) (*ScenarioResult, error) {
	cfg.fillDefaults()
	p := scenarios.NS2Dumbbell(cfg.Seed, cfg.Flows)
	p.BufferBDPFrac, p.Noise = cfg.BufferBDPFrac, cfg.NoiseFraction
	if cfg.RED {
		p.Queue = redQueue(sim.SubSeed(cfg.Seed, 4), false, 0)
	}
	return scenarios.BuildDumbbell(p, topo.ScenarioConfig{
		Seed: cfg.Seed, Duration: cfg.Duration, Warmup: cfg.Warmup,
	}, a).Finish("figure 2 scenario")
}

// redQueue builds the paper's RED bottleneck — thresholds at 1/6 and 1/2
// of the buffer, maxP 0.1 — drawing from seed. With ecn it marks instead
// of dropping, and a positive persist (seconds) keeps marking every flow
// for that long after each decision.
func redQueue(seed int64, ecn bool, persist float64) func(int, float64) netsim.Queue {
	return func(limit int, pps float64) netsim.Queue {
		return netsim.NewRED(netsim.REDConfig{
			Limit:            limit,
			MinTh:            float64(limit) / 6,
			MaxTh:            float64(limit) / 2,
			MaxP:             0.1,
			ECN:              ecn,
			PacketsPerSecond: pps,
			PersistMark:      persist,
		}, sim.NewRand(seed))
	}
}
