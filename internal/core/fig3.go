package core

import (
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/topo/scenarios"
)

// Fig3Config reproduces the Dummynet emulation: the same dumbbell as
// Figure 2, but (a) flow RTTs come from the paper's four fixed classes
// {2, 10, 50, 200} ms, (b) the bottleneck adds per-packet processing
// noise, and (c) the recorded drop timestamps are quantized to the
// FreeBSD 1 ms clock.
type Fig3Config struct {
	Seed          int64
	FlowsPerClass int // flows per RTT class (default 4 → 16 total)
	BufferBDPFrac float64
	NoiseFraction float64
	Duration      sim.Duration
	Warmup        sim.Duration
	// ProcNoiseMax bounds the router processing jitter (default 100 µs).
	ProcNoiseMax sim.Duration
}

// RTTClasses are the four Dummynet latency classes of the paper.
var RTTClasses = []sim.Duration{
	2 * sim.Millisecond,
	10 * sim.Millisecond,
	50 * sim.Millisecond,
	200 * sim.Millisecond,
}

func (c *Fig3Config) fillDefaults() {
	if c.FlowsPerClass == 0 {
		c.FlowsPerClass = 4
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
	if c.ProcNoiseMax == 0 {
		c.ProcNoiseMax = 100 * sim.Microsecond
	}
}

// RunFigure3 executes the Dummynet-style scenario on a fresh arena. The
// returned ScenarioResult's trace holds the quantized timestamps (what the
// paper's instrumented router logged).
func RunFigure3(cfg Fig3Config) (*ScenarioResult, error) {
	return runFigure3(cfg, nil)
}

// runFigure3 builds and runs one Figure-3 world on the arena (nil: a
// fresh one). The quantized drop stream feeds the streaming analyzer
// directly: Quantize is monotone, so the stream stays nondecreasing.
func runFigure3(cfg Fig3Config, a *exp.Arena) (*ScenarioResult, error) {
	cfg.fillDefaults()
	delays := make([]sim.Duration, cfg.FlowsPerClass*len(RTTClasses))
	for i := range delays {
		delays[i] = RTTClasses[i%len(RTTClasses)] / 2
	}
	return scenarios.BuildDumbbell(scenarios.Dumbbell{
		Delays:           delays,
		BufferBDPFrac:    cfg.BufferBDPFrac,
		ProcNoise:        netsim.UniformNoise(sim.NewRand(sim.SubSeed(cfg.Seed, 11)), cfg.ProcNoiseMax),
		Quantum:          sim.Millisecond,
		Noise:            cfg.NoiseFraction,
		NoiseTag:         12,
		Spread:           2 * sim.Second,
		SSThreshAtBuffer: true,
	}, topo.ScenarioConfig{
		Seed: cfg.Seed, Duration: cfg.Duration, Warmup: cfg.Warmup,
	}, a).Finish("figure 3 scenario")
}
