package core

import (
	"repro/internal/crosstraffic"
	"repro/internal/dummynet"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
)

// Fig3Config reproduces the Dummynet emulation: the same dumbbell as
// Figure 2, but (a) flow RTTs come from the paper's four fixed classes
// {2, 10, 50, 200} ms, (b) the bottleneck adds per-packet processing
// noise, and (c) the recorded drop timestamps are quantized to the
// FreeBSD 1 ms clock.
type Fig3Config struct {
	Seed           int64
	FlowsPerClass  int   // flows per RTT class (default 4 → 16 total)
	BottleneckRate int64 // default 100 Mbps
	BufferBDPFrac  float64
	NoiseFlows     int
	NoiseFraction  float64
	PktSize        int
	Duration       sim.Duration
	Warmup         sim.Duration
	StartSpread    sim.Duration
	// ProcNoiseMax bounds the router processing jitter (default 100 µs).
	ProcNoiseMax sim.Duration
	// ClockResolution quantizes the loss trace (default 1 ms).
	ClockResolution sim.Duration
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
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 100_000_000
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
	if c.ProcNoiseMax == 0 {
		c.ProcNoiseMax = 100 * sim.Microsecond
	}
	if c.ClockResolution == 0 {
		c.ClockResolution = sim.Millisecond
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
	w := topo.NewWorld(a, cfg.Warmup)
	sched, pool := w.Sched, w.Pool
	noiseRng := sim.NewRand(sim.SubSeed(cfg.Seed, 11))

	nFlows := cfg.FlowsPerClass * len(RTTClasses)
	delays := make([]sim.Duration, nFlows)
	var meanRTT sim.Duration
	for i := range delays {
		rtt := RTTClasses[i%len(RTTClasses)]
		delays[i] = rtt / 2
		meanRTT += rtt
	}
	meanRTT /= sim.Duration(nFlows)

	buffer := bdpBuffer(cfg.BufferBDPFrac, cfg.BottleneckRate, meanRTT, cfg.PktSize)

	d := w.Dumbbell(netsim.DumbbellConfig{
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 0,
		AccessRate:      1_000_000_000,
		AccessDelays:    delays,
		Buffer:          buffer,
	})

	// The Dummynet non-idealities: processing noise on the bottleneck
	// (a per-run hook Port.Reset detaches, so it is attached every run)
	// and a quantizing drop recorder.
	d.Forward.ProcNoise = netsim.UniformNoise(noiseRng, cfg.ProcNoiseMax)
	warm := sim.Time(cfg.Warmup)
	d.Forward.OnDrop = func(p *netsim.Packet, at sim.Time) {
		if at >= warm {
			w.Record(trace.LossEvent{
				At:   dummynet.Quantize(at, cfg.ClockResolution),
				Flow: p.Flow, Seq: p.Seq, Size: p.Size,
			})
		}
	}

	flows := make([]*tcp.Flow, nFlows)
	for i := range flows {
		flows[i] = tcp.NewPairFlow(sched, d.SenderNode(i), d.ReceiverNode(i), i+1, tcp.Config{
			PktSize:         cfg.PktSize,
			InitialRTT:      2 * delays[i],
			InitialSSThresh: float64(buffer),
			Pool:            pool,
		})
	}
	for i, f := range flows {
		f.StartAt(sched, sim.Time(sim.Duration(i)*cfg.StartSpread/sim.Duration(nFlows)))
	}

	d.RightRouter.BindDefault(pool.Sink())
	d.LeftRouter.BindDefault(pool.Sink())
	for _, nz := range crosstraffic.NoiseSet(sched, d.Forward, cfg.NoiseFlows/2,
		cfg.BottleneckRate, cfg.NoiseFraction/2, 100000,
		netsim.SenderAddr(0), 2, sim.SubSeed(cfg.Seed, 12), pool) {
		nz.Start()
	}
	for _, nz := range crosstraffic.NoiseSet(sched, d.Reverse, cfg.NoiseFlows-cfg.NoiseFlows/2,
		cfg.BottleneckRate, cfg.NoiseFraction/2, 200000,
		netsim.ReceiverAddr(0), 1, sim.SubSeed(cfg.Seed, 13), pool) {
		nz.Start()
	}

	return w.Finish("figure 3 scenario", cfg.Duration, meanRTT)
}
