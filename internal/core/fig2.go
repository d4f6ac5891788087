package core

import (
	"repro/internal/crosstraffic"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// Fig2Config reproduces the paper's NS-2 setup (Figure 1): a 100 Mbps
// DropTail bottleneck shared by N TCP flows with access latencies drawn
// uniformly from [2 ms, 200 ms], plus 50 two-way exponential on–off noise
// flows averaging 10% of capacity.
type Fig2Config struct {
	Seed           int64
	Flows          int          // 2, 4, 8, 16 or 32 in the paper
	BottleneckRate int64        // default 100 Mbps
	AccessLow      sim.Duration // default 2 ms
	AccessHigh     sim.Duration // default 200 ms
	// BufferBDPFrac sizes the bottleneck buffer as a fraction of the
	// BDP at the mean RTT (paper sweeps 1/8 … 2; default 0.5).
	BufferBDPFrac float64
	NoiseFlows    int          // default 50
	NoiseFraction float64      // default 0.10 of capacity
	PktSize       int          // default 1000
	Duration      sim.Duration // default 60 s
	// Warmup discards drops before this time (slow-start transient).
	Warmup sim.Duration // default 10 s
	// StartSpread staggers flow starts uniformly over this window to
	// avoid seeding artificial global synchronization (default 2 s).
	StartSpread sim.Duration
	// RED replaces the DropTail bottleneck with a RED queue (minTh =
	// buffer/6, maxTh = buffer/2, maxP = 0.1) — the paper's suggested
	// de-bursting remedy, used by the ablation bench.
	RED bool
}

func (c *Fig2Config) fillDefaults() {
	if c.Flows == 0 {
		c.Flows = 16
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 100_000_000
	}
	if c.AccessLow == 0 {
		c.AccessLow = 2 * sim.Millisecond
	}
	if c.AccessHigh == 0 {
		c.AccessHigh = 200 * sim.Millisecond
	}
	if c.BufferBDPFrac == 0 {
		c.BufferBDPFrac = 0.5
	}
	if c.NoiseFlows == 0 {
		c.NoiseFlows = 50
	}
	if c.NoiseFraction == 0 {
		c.NoiseFraction = 0.10
	}
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
	if c.Warmup == 0 {
		c.Warmup = 10 * sim.Second
	}
	if c.StartSpread == 0 {
		c.StartSpread = 2 * sim.Second
	}
}

// ScenarioResult is the outcome of one loss-trace run — the figures and
// the registered scenarios share it.
type ScenarioResult = topo.ScenarioResult

// bdpBuffer sizes a bottleneck buffer: frac of the path's bandwidth-delay
// product in packets, at least 8. Every dumbbell runner in this package
// sizes its buffer here.
func bdpBuffer(frac float64, rate int64, rtt sim.Duration, pktSize int) int {
	buffer := int(frac * float64(netsim.BDP(rate, rtt, pktSize)))
	if buffer < 8 {
		buffer = 8
	}
	return buffer
}

// RunFigure2 executes the NS-2-style scenario on a fresh arena and
// analyzes the bottleneck drop trace, which is retained in the result;
// sweeps go through runFigure2 with a per-worker arena instead.
func RunFigure2(cfg Fig2Config) (*ScenarioResult, error) {
	return runFigure2(cfg, nil)
}

// runFigure2 builds and runs one Figure-2 world on the arena (nil: a
// fresh one, see topo.NewWorld).
func runFigure2(cfg Fig2Config, a *exp.Arena) (*ScenarioResult, error) {
	cfg.fillDefaults()
	w := topo.NewWorld(a, cfg.Warmup)
	sched, pool := w.Sched, w.Pool
	rng := sim.NewRand(sim.SubSeed(cfg.Seed, 1))

	delays := netsim.RandomAccessDelays(rng, cfg.Flows, cfg.AccessLow, cfg.AccessHigh)
	var meanRTT sim.Duration
	for _, d := range delays {
		meanRTT += 2 * d
	}
	meanRTT /= sim.Duration(cfg.Flows)

	buffer := bdpBuffer(cfg.BufferBDPFrac, cfg.BottleneckRate, meanRTT, cfg.PktSize)

	var queue netsim.Queue
	if cfg.RED {
		queue = netsim.NewRED(netsim.REDConfig{
			Limit: buffer,
			MinTh: float64(buffer) / 6,
			MaxTh: float64(buffer) / 2,
			MaxP:  0.1,
			PacketsPerSecond: float64(cfg.BottleneckRate) /
				float64(cfg.PktSize*8),
		}, sim.NewRand(sim.SubSeed(cfg.Seed, 4)))
	}
	d := w.Dumbbell(netsim.DumbbellConfig{
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 0,
		AccessRate:      1_000_000_000,
		AccessDelays:    delays,
		Buffer:          buffer,
		Queue:           queue,
	})
	w.ObserveDrops(d.Forward)

	flows := make([]*tcp.Flow, cfg.Flows)
	for i := range flows {
		flows[i] = tcp.NewPairFlow(sched, d.SenderNode(i), d.ReceiverNode(i), i+1, tcp.Config{
			PktSize:         cfg.PktSize,
			InitialRTT:      2 * delays[i],
			InitialSSThresh: float64(buffer),
			Pool:            pool,
		})
	}
	// Stagger starts to avoid a synthetic global synchronization at t=0.
	for i, f := range flows {
		f.StartAt(sched, sim.Time(sim.Duration(i)*cfg.StartSpread/sim.Duration(cfg.Flows)))
	}

	// Noise: two-way on–off UDP, absorbed (and recycled) by the routers'
	// default sinks.
	d.RightRouter.BindDefault(pool.Sink())
	d.LeftRouter.BindDefault(pool.Sink())
	fwdNoise := crosstraffic.NoiseSet(sched, d.Forward, cfg.NoiseFlows/2,
		cfg.BottleneckRate, cfg.NoiseFraction/2, 100000,
		netsim.SenderAddr(0), 2, sim.SubSeed(cfg.Seed, 2), pool)
	revNoise := crosstraffic.NoiseSet(sched, d.Reverse, cfg.NoiseFlows-cfg.NoiseFlows/2,
		cfg.BottleneckRate, cfg.NoiseFraction/2, 200000,
		netsim.ReceiverAddr(0), 1, sim.SubSeed(cfg.Seed, 3), pool)
	for _, nz := range fwdNoise {
		nz.Start()
	}
	for _, nz := range revNoise {
		nz.Start()
	}

	return w.Finish("figure 2 scenario", cfg.Duration, meanRTT)
}
