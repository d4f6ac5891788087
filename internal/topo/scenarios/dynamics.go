package scenarios

// The time-varying scenarios: wireless and cellular paths where capacity
// and loss vary over simulated time, the workload the paper's static
// dumbbell cannot express. Each one exercises a different
// link-dynamics program (topo.DynamicsSpec / topo.LossSpec):
//
//   - wifi-gilbert: random-walk rate adaptation plus a Gilbert–Elliott
//     wire-loss chain on the wireless hop,
//   - cellular-trace: a checked-in LTE-shaped bandwidth trace
//     (testdata/cellular-bw.txt) replayed onto the radio link,
//   - flaky-backbone: a looping outage schedule that periodically
//     collapses the backbone to a trickle.
//
// Wire losses and queue drops surface through the same OnDrop observer,
// so the analysis sees one merged, time-ordered loss process per run.

import (
	_ "embed"
	"fmt"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

//go:embed testdata/cellular-bw.txt
var cellularBWTrace []byte

func init() {
	register("wifi-gilbert",
		"wireless last hop: random-walk rate adaptation + Gilbert–Elliott wire loss",
		"8 stations → AP → 12–54 Mbps walking wireless hop (GE bursts) → gateway",
		"frac < 0.01 RTT ≈ 0.72, CoV ≈ 5",
		runWifiGilbert)
	register("cellular-trace",
		"trace-driven cellular downlink: checked-in LTE bandwidth trace with deep fades",
		"6 handsets → basestation → 2.2–24 Mbps traced radio link → core",
		"frac < 0.01 RTT ≈ 0.74, CoV ≈ 11",
		runCellularTrace)
	register("flaky-backbone",
		"periodic backbone outages: the link collapses to 200 kbps for 300 ms every 2.5 s",
		"10 pairs over an 80 Mbps backbone with a looping outage schedule",
		"frac < 0.01 RTT ≈ 0.99, CoV ≈ 29",
		runFlakyBackbone)
}

// dynamicPath builds the standard time-varying-path shape the three
// scenarios share: per-pair senders and receivers around one middle hop
// ("left" → "right") whose A→B direction carries the given queue limit,
// dynamics and loss process. Access links are fast and loss-free so every
// drop in the world happens on the middle hop (queue or wire).
func dynamicPath(name string, delays []sim.Duration, rate int64, hopDelay sim.Duration,
	buffer int, dyn *topo.DynamicsSpec, loss *topo.LossSpec) topo.Spec {
	spec := topo.Spec{Name: name}
	spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: "left"}, topo.NodeSpec{Name: "right"})
	spec.Links = append(spec.Links, topo.LinkSpec{
		A: "left", B: "right",
		AB: topo.Dir{
			Rate: rate, Delay: hopDelay,
			Queue:    topo.QueueSpec{Limit: buffer},
			Dynamics: dyn,
			Loss:     loss,
		},
		// The reverse (ACK) direction keeps the nominal rate with a
		// generous buffer: the scenarios study the data-direction loss
		// process, not ACK starvation.
		BA: topo.Dir{Rate: rate, Delay: hopDelay, Queue: topo.QueueSpec{Limit: topo.DefaultQueueLimit}},
	})
	for i, d := range delays {
		snd, rcv := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		access := topo.Dir{Rate: 1_000_000_000, Delay: d / 2}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: "left", AB: access},
			topo.LinkSpec{A: "right", B: rcv, AB: access},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: snd, To: rcv})
	}
	return spec
}

// runDynamicPath finishes the shared wiring: build, observe the middle
// hop, start flows and noise, run.
func runDynamicPath(w *world, cfg topo.ScenarioConfig, spec topo.Spec,
	buffer int, noiseRate int64, noiseFraction float64) (*topo.ScenarioResult, error) {
	net, err := w.network(cfg, spec)
	if err != nil {
		return nil, err
	}
	hop := net.Port("left", "right")
	w.ObserveDrops(hop)
	w.startFlows(net, cfg, float64(buffer), 2*sim.Second)
	w.absorb(net, "left", "right")
	w.noiseInto(net, hop, 8, noiseRate, noiseFraction, 100000,
		net.Addr("left"), "right", sim.SubSeed(cfg.Seed, 3))
	return w.finish(spec.Name, cfg, net.MeanFlowRTT())
}

// Nominal middle-hop rates and noise fractions of the two shapes the
// loss-vs-delay showdown reuses (see gcc.go), shared so the gcc-prefixed
// variants stay parameter-identical to the originals.
const (
	wifiNomRate       = 30_000_000
	wifiNoiseFraction = 0.10
	cellNomRate       = 16_000_000
	cellNoiseFraction = 0.08
)

// wifiSpec builds the wifi-gilbert shape under the given topology name:
// the wireless rate walks between 12 and 54 Mbps while a sticky
// Gilbert–Elliott chain erases multi-packet bursts on the wire. The seed
// chain (delays from SubSeed(seed,1)) is fixed — a different name reuses
// the same world geometry, so wifi-gilbert's goldens never move.
func wifiSpec(cfg topo.ScenarioConfig, name string) (topo.Spec, int) {
	const (
		pairs    = 8
		hopDelay = 3 * sim.Millisecond
	)
	rng := sim.NewRand(sim.SubSeed(cfg.Seed, 1))
	delays := netsim.RandomAccessDelays(rng, pairs, 2*sim.Millisecond, 60*sim.Millisecond)

	var meanRTT sim.Duration
	for _, d := range delays {
		meanRTT += 2 * (d + hopDelay)
	}
	meanRTT /= pairs
	buffer := bufferFor(wifiNomRate, meanRTT, cfg.PktSize)

	return dynamicPath(name, delays, wifiNomRate, hopDelay, buffer,
		&topo.DynamicsSpec{Walk: &topo.WalkSpec{
			Min: 12_000_000, Max: 54_000_000,
			Factor:   1.3,
			Interval: 200 * sim.Millisecond,
		}},
		&topo.LossSpec{PGB: 0.003, PBG: 0.25, KGood: 0, KBad: 0.9}), buffer
}

// runWifiGilbert models a shared 802.11-style hop: the wireless rate walks
// between 12 and 54 Mbps (rate adaptation reacting to channel quality)
// while a sticky Gilbert–Elliott chain erases multi-packet bursts on the
// wire — at 30 Mbps a mean 4-packet bad dwell spans ~1 ms, far below the
// ~60 ms RTT, so the link itself now produces the paper's sub-RTT
// clustering on top of whatever the queue adds.
func runWifiGilbert(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
	cfg.FillDefaults()
	w := newWorld(cfg, a)
	spec, buffer := wifiSpec(cfg, "wifi-gilbert")
	return runDynamicPath(w, cfg, spec, buffer, wifiNomRate, wifiNoiseFraction)
}

// runCellularTrace replays the checked-in LTE-shaped bandwidth trace onto
// the radio link: capacity swings between 2.2 and 24 Mbps with deep
// multi-second fades, and every fade turns the aggregate TCP demand into
// a clustered queue-overflow episode. The 40 s schedule loops, so longer
// runs see the same fading pattern repeatedly.
func runCellularTrace(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
	cfg.FillDefaults()
	w := newWorld(cfg, a)
	spec, buffer, err := cellularSpec(cfg, "cellular-trace")
	if err != nil {
		return nil, err
	}
	return runDynamicPath(w, cfg, spec, buffer, cellNomRate, cellNoiseFraction)
}

// cellularSpec builds the cellular-trace shape under the given topology
// name: the checked-in LTE bandwidth trace replayed onto the radio link.
// Like wifiSpec, the seed chain is name-independent.
func cellularSpec(cfg topo.ScenarioConfig, name string) (topo.Spec, int, error) {
	const (
		pairs    = 6
		hopDelay = 25 * sim.Millisecond
	)
	steps, err := topo.ParseBandwidthTrace(cellularBWTrace)
	if err != nil {
		return topo.Spec{}, 0, fmt.Errorf("%s: %w", name, err)
	}
	rng := sim.NewRand(sim.SubSeed(cfg.Seed, 1))
	delays := netsim.RandomAccessDelays(rng, pairs, 2*sim.Millisecond, 20*sim.Millisecond)

	var meanRTT sim.Duration
	for _, d := range delays {
		meanRTT += 2 * (d + hopDelay)
	}
	meanRTT /= pairs
	buffer := bufferFor(cellNomRate, meanRTT, cfg.PktSize)

	return dynamicPath(name, delays, cellNomRate, hopDelay, buffer,
		&topo.DynamicsSpec{Steps: steps, Loop: 40 * sim.Second}, nil), buffer, nil
}

// runFlakyBackbone drives a looping outage schedule: every 2.5 s the
// 80 Mbps backbone collapses to 200 kbps for 300 ms — a flapping carrier
// or a rerouting convergence gap. Each outage fills the buffer within
// tens of milliseconds and then drops near-everything offered until the
// link recovers, producing extreme loss bursts separated by clean
// multi-second epochs.
func runFlakyBackbone(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
	cfg.FillDefaults()
	const (
		pairs    = 10
		rate     = 80_000_000
		hopDelay = 5 * sim.Millisecond
	)
	w := newWorld(cfg, a)
	rng := sim.NewRand(sim.SubSeed(cfg.Seed, 1))
	delays := netsim.RandomAccessDelays(rng, pairs, 2*sim.Millisecond, 80*sim.Millisecond)

	var meanRTT sim.Duration
	for _, d := range delays {
		meanRTT += 2 * (d + hopDelay)
	}
	meanRTT /= pairs
	buffer := bufferFor(rate, meanRTT, cfg.PktSize)

	spec := dynamicPath("flaky-backbone", delays, rate, hopDelay, buffer,
		&topo.DynamicsSpec{
			// Recovery at each loop boundary (step 0), outage 2.2 s in:
			// up 2.2 s, down 0.3 s, repeat.
			Steps: []netsim.RateStep{
				{At: 0, Rate: rate},
				{At: 2200 * sim.Millisecond, Rate: 200_000},
			},
			Loop: 2500 * sim.Millisecond,
		}, nil)
	return runDynamicPath(w, cfg, spec, buffer, rate, 0.15)
}
