package scenarios

// The delay-based congestion-control scenarios: the wifi-gilbert and
// cellular-trace shapes re-registered with a mix of GCC-style delay-based
// flows (internal/ratectl) and loss-based TCP flows, plus the showdown
// world runner core.SweepShowdown uses to compare the two transport
// families one-kind-at-a-time on identical worlds.

import (
	"fmt"
	"math"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/ratectl"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

func init() {
	register("gcc-vs-tcp-wifi",
		"wifi-gilbert world with half the flows delay-based (GCC) and half loss-based (TCP)",
		"wifi-gilbert shape, 4 GCC + 4 TCP flows sharing the walking wireless hop",
		"frac < 0.01 RTT ≈ 0.55, CoV ≈ 3",
		runGCCVsTCPWifi)
	register("gcc-cellular",
		"cellular-trace world with half the flows delay-based (GCC) and half loss-based (TCP)",
		"cellular-trace shape, 3 GCC + 3 TCP flows sharing the traced radio link",
		"frac < 0.01 RTT ≈ 0.69, CoV ≈ 11",
		runGCCCellular)
}

// markGCC flags every even-indexed flow as delay-based, interleaving the
// two transport families across the access-delay distribution so neither
// kind monopolizes the short-RTT pairs.
func markGCC(spec *topo.Spec) {
	for i := range spec.Flows {
		if i%2 == 0 {
			spec.Flows[i].Kind = topo.FlowGCC
		}
	}
}

// runGCCVsTCPWifi is the wifi-gilbert world with mixed transports: the
// delay-based flows back off on queue growth while the loss-based ones
// push until drops, so the loss process the analysis sees is TCP's — but
// shaped by the bandwidth the GCC flows concede.
func runGCCVsTCPWifi(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
	cfg.FillDefaults()
	w := newWorld(cfg, a)
	spec, buffer := wifiSpec(cfg, "gcc-vs-tcp-wifi")
	markGCC(&spec)
	return runDynamicPath(w, cfg, spec, buffer, wifiNomRate, wifiNoiseFraction)
}

// runGCCCellular is the cellular-trace world with mixed transports.
func runGCCCellular(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
	cfg.FillDefaults()
	w := newWorld(cfg, a)
	spec, buffer, err := cellularSpec(cfg, "gcc-cellular")
	if err != nil {
		return nil, err
	}
	markGCC(&spec)
	return runDynamicPath(w, cfg, spec, buffer, cellNomRate, cellNoiseFraction)
}

// ShowdownShape is one time-varying world the loss-vs-delay showdown runs
// both transport families through.
type ShowdownShape struct {
	Name          string
	NoiseRate     int64
	NoiseFraction float64
	// Build constructs the spec under the given topology name and returns
	// it with the middle-hop buffer.
	Build func(cfg topo.ScenarioConfig, name string) (topo.Spec, int, error)
}

// ShowdownShapes lists the worlds the showdown compares transports on.
func ShowdownShapes() []ShowdownShape {
	return []ShowdownShape{
		{
			Name: "wifi-gilbert", NoiseRate: wifiNomRate, NoiseFraction: wifiNoiseFraction,
			Build: func(cfg topo.ScenarioConfig, name string) (topo.Spec, int, error) {
				s, b := wifiSpec(cfg, name)
				return s, b, nil
			},
		},
		{Name: "cellular-trace", NoiseRate: cellNomRate, NoiseFraction: cellNoiseFraction, Build: showdownCellularSpec},
	}
}

// showdownTraceDilation stretches the cellular trace's playback for the
// showdown: each 1 s capacity sample is held for this factor. The raw
// cadence re-randomizes capacity faster than ANY end-to-end controller's
// convergence time — at that timescale loss-based TCP "wins" goodput only
// by keeping the buffer permanently full, which is exactly the behavior
// the showdown exists to price. Pedestrian-pace fading (multi-second
// stable windows, same fade structure and depth) lets both families
// actually track the link, making the goodput comparison meaningful.
const showdownTraceDilation = 3

// showdownCellularSpec is cellularSpec adapted for the showdown: the trace
// steps and loop are stretched by showdownTraceDilation, and the radio
// link carries a light bursty Gilbert–Elliott wire-loss process — the
// residual non-congestive loss a real cellular link shows (HARQ leakage,
// handovers, cell-edge fades). The stationary loss rate is ~1%: far below
// the loss controller's 2% low-water mark, so the delay-based flows shrug
// it off, while the loss-based flows read every erased burst as
// congestion — the paper's sub-RTT loss-clustering finding turned into a
// controller-level experiment.
func showdownCellularSpec(cfg topo.ScenarioConfig, name string) (topo.Spec, int, error) {
	spec, buffer, err := cellularSpec(cfg, name)
	if err != nil {
		return spec, buffer, err
	}
	for li := range spec.Links {
		dyn := spec.Links[li].AB.Dynamics
		if dyn == nil || len(dyn.Steps) == 0 {
			continue
		}
		steps := make([]netsim.RateStep, len(dyn.Steps))
		for si, st := range dyn.Steps {
			steps[si] = netsim.RateStep{At: st.At * showdownTraceDilation, Rate: st.Rate}
		}
		spec.Links[li].AB.Dynamics = &topo.DynamicsSpec{Steps: steps, Loop: dyn.Loop * showdownTraceDilation}
		spec.Links[li].AB.Loss = &topo.LossSpec{PGB: 0.003, PBG: 0.25, KGood: 0, KBad: 0.9}
	}
	return spec, buffer, nil
}

// ShowdownMetrics is one transport family's scorecard on one world.
type ShowdownMetrics struct {
	// GoodputBps is the aggregate post-warmup delivery rate across all
	// flows, bits/second.
	GoodputBps float64
	// InducedDelayMs is the mean one-way delay above each flow's own
	// observed minimum — the queueing delay the transport inflicts on
	// itself — averaged over flows, milliseconds.
	InducedDelayMs float64
	// Drops counts post-warmup transport-flow packets lost on the middle
	// hop (wire loss and queue overflow; background noise excluded).
	Drops int
	// RecoveryMs is the mean time from the end of a loss episode until the
	// windowed delivery rate regains 80% of its pre-episode level,
	// milliseconds. Zero when the run had no post-warmup loss episodes.
	RecoveryMs float64
	// Events is the run's simulated event count (scheduler throughput
	// accounting, like every other experiment driver).
	Events uint64
}

// showdownBin is the goodput/loss time-series resolution.
const showdownBin = 100 * sim.Millisecond

// RunShowdownWorld runs one (shape, transport family) cell: the shape's
// world is built with every flow of the given kind and identical
// background noise, so two calls with the same cfg.Seed and different
// kinds face bit-identical link dynamics, wire loss and noise processes —
// the controlled comparison the showdown figure reports.
func RunShowdownWorld(shape ShowdownShape, kind topo.FlowKind, cfg topo.ScenarioConfig, a *exp.Arena) (*ShowdownMetrics, error) {
	cfg.FillDefaults()
	w := newWorld(cfg, a)
	spec, buffer, err := shape.Build(cfg, shape.Name+"-showdown")
	if err != nil {
		return nil, err
	}
	for i := range spec.Flows {
		spec.Flows[i].Kind = kind
	}
	net, err := w.network(cfg, spec)
	if err != nil {
		return nil, err
	}

	n := net.NumFlows()
	warm := sim.Time(cfg.Warmup)
	bins := int(cfg.Duration/showdownBin) + 1
	rxBytes := make([]int64, bins)
	dropBin := make([]int, bins)
	minDelay := make([]sim.Duration, n+1)
	sumDelay := make([]float64, n+1) // ms
	numDelay := make([]int64, n+1)
	for i := range minDelay {
		minDelay[i] = -1
	}
	binOf := func(at sim.Time) int {
		b := int(sim.Duration(at) / showdownBin)
		if b >= bins {
			b = bins - 1
		}
		return b
	}
	onData := func(p *netsim.Packet, at sim.Time) {
		if at < warm {
			return
		}
		rxBytes[binOf(at)] += int64(p.Size)
		d := at.Sub(p.SendTime)
		f := p.Flow
		if f < 0 || f > n {
			return
		}
		if minDelay[f] < 0 || d < minDelay[f] {
			minDelay[f] = d
		}
		sumDelay[f] += float64(d) / float64(sim.Millisecond)
		numDelay[f]++
	}

	drops := 0
	hop := net.Port("left", "right")
	hop.OnDrop = func(pkt *netsim.Packet, at sim.Time) {
		if at < warm || pkt.Flow > n {
			return
		}
		drops++
		dropBin[binOf(at)]++
	}

	// One flow per pair, all of the requested family, staggered like
	// startFlows. GCC flows alternate estimators so both filters face the
	// showdown's dynamics.
	spread := 2 * sim.Second
	for i := 0; i < n; i++ {
		at := sim.Time(sim.Duration(i) * spread / sim.Duration(n))
		if kind == topo.FlowGCC {
			f := ratectl.NewGCCFlow(net.Sched, net.FlowSender(i), net.FlowReceiver(i), i+1, ratectl.GCCConfig{
				PktSize:    cfg.PktSize,
				InitialRTT: net.FlowRTT(i),
				Estimator:  ratectl.EstimatorKind(i % 2),
				Seed:       sim.SubSeed(cfg.Seed, int64(1000+i)),
				Pool:       w.Pool,
			})
			f.Receiver.OnData = onData
			f.StartAt(net.Sched, at)
		} else {
			f := tcp.NewPairFlow(net.Sched, net.FlowSender(i), net.FlowReceiver(i), i+1, tcp.Config{
				PktSize:         cfg.PktSize,
				InitialRTT:      net.FlowRTT(i),
				InitialSSThresh: float64(buffer),
				Pool:            w.Pool,
			})
			f.Receiver.OnData = onData
			f.StartAt(net.Sched, at)
		}
	}

	w.absorb(net, "left", "right")
	w.noiseInto(net, hop, 8, shape.NoiseRate, shape.NoiseFraction, 100000,
		net.Addr("left"), "right", sim.SubSeed(cfg.Seed, 3))

	w.Sched.RunUntil(sim.Time(cfg.Duration))

	m := &ShowdownMetrics{Drops: drops, Events: w.Sched.Fired()}
	span := (cfg.Duration - cfg.Warmup).Seconds()
	if span > 0 {
		var total int64
		for _, b := range rxBytes {
			total += b
		}
		m.GoodputBps = float64(total) * 8 / span
	}
	var induced float64
	flowsSeen := 0
	for f := 1; f <= n; f++ {
		if numDelay[f] == 0 || minDelay[f] < 0 {
			continue
		}
		induced += sumDelay[f]/float64(numDelay[f]) - float64(minDelay[f])/float64(sim.Millisecond)
		flowsSeen++
	}
	if flowsSeen > 0 {
		m.InducedDelayMs = induced / float64(flowsSeen)
	}
	m.RecoveryMs = recoveryTime(rxBytes, dropBin, int(sim.Duration(warm)/showdownBin))
	if m.Drops == 0 && flowsSeen == 0 {
		return nil, fmt.Errorf("scenarios: showdown %s/%v delivered no packets", shape.Name, kind)
	}
	return m, nil
}

// recoveryTime scans the binned goodput series for loss episodes (maximal
// runs of bins containing transport drops) and measures, for each, how
// long after the episode the windowed delivery rate takes to regain 80% of
// its pre-episode mean. Returns the mean over episodes in milliseconds.
func recoveryTime(rxBytes []int64, dropBin []int, warmBin int) float64 {
	const preWindow = 5
	var totalMs float64
	episodes := 0
	i := warmBin
	for i < len(dropBin) {
		if dropBin[i] == 0 {
			i++
			continue
		}
		start := i
		for i < len(dropBin) && dropBin[i] > 0 {
			i++
		}
		end := i - 1 // last bin with drops

		lo := start - preWindow
		if lo < warmBin {
			lo = warmBin
		}
		if lo >= start {
			continue // no pre-episode baseline
		}
		var pre float64
		for j := lo; j < start; j++ {
			pre += float64(rxBytes[j])
		}
		pre /= float64(start - lo)
		if pre <= 0 {
			continue
		}
		target := 0.8 * pre
		rec := len(rxBytes) - 1 - end // cap: never recovered before the run ended
		for j := end + 1; j < len(rxBytes); j++ {
			if float64(rxBytes[j]) >= target {
				rec = j - end
				break
			}
		}
		totalMs += float64(rec) * float64(showdownBin) / float64(sim.Millisecond)
		episodes++
	}
	if episodes == 0 {
		return 0
	}
	return math.Round(totalMs/float64(episodes)*100) / 100
}
