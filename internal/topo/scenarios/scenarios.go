// Package scenarios registers the repository's scenario catalog with the
// topo registry: the paper's dumbbell baseline plus the topologies the
// paper's conclusions are claimed to generalize to — a parking-lot chain
// of bottlenecks with per-hop cross traffic, a shared-access tree with one
// congested uplink, a heterogeneous-RTT multi-bottleneck mesh whose path
// latencies come from the synthetic PlanetLab testbed, and the
// time-varying set (see dynamics.go): a Gilbert–Elliott wireless hop, a
// trace-driven cellular downlink and a periodically failing backbone.
// Importing this package (usually blank, for the side effect) populates
// topo.Scenarios(); each scenario produces the same analysis.Report
// burstiness metrics as the dumbbell figures, so the paper's
// sub-RTT-clustering result can be checked on every topology with one
// command:
//
//	paperexp -scenario all
//
// The EXPERIMENTS.md scenario-catalog table is generated from these
// registrations by `docscheck -write-catalog`; keep each Scenario's
// Topology and Headline strings current when editing a scenario.
package scenarios

import (
	"fmt"

	"repro/internal/apps/rft"
	"repro/internal/crosstraffic"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/planetlab"
	"repro/internal/ratectl"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// register adds one run function to the registry. headline is the
// measured catalog number (see topo.Scenario.Headline).
func register(name, description, topology, headline string,
	run func(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error)) {
	topo.Register(topo.Scenario{
		Name:        name,
		Description: description,
		Topology:    topology,
		Headline:    headline,
		RunIn:       run,
	})
}

func init() {
	register("dumbbell",
		"the paper's Figure-1 baseline through the declarative builder",
		"2 routers, 1 shared DropTail bottleneck, 16 pairs, U[2,200]ms access",
		"frac < 0.01 RTT ≈ 1.00, CoV ≈ 33",
		runDumbbell)
	register("parking-lot",
		"bottlenecks in series with independent cross traffic per hop",
		"4 routers, 3 congested 30 Mbps hops, 8 end-to-end pairs",
		"frac < 0.01 RTT ≈ 0.90, CoV ≈ 16",
		runParkingLot)
	register("access-tree",
		"shared-access tree: one congested uplink feeding per-leaf access links",
		"8 leaves → edge → 20 Mbps uplink → core → server",
		"frac < 0.01 RTT ≈ 0.89, CoV ≈ 10",
		runAccessTree)
	register("hetero-mesh",
		"heterogeneous-RTT multi-bottleneck mesh driven by PlanetLab path latencies",
		"3-router backbone, 2 unequal bottlenecks, 8 PlanetLab-RTT pairs",
		"frac < 0.01 RTT ≈ 0.90, CoV ≈ 15",
		runHeteroMesh)
}

// world is the catalog's layer over the shared topo.World scaffold: the
// transport wiring (startFlows, noiseInto), the fleet-jitter scales and
// the traffic-source and file-transfer accounting that only registered
// scenarios report.
type world struct {
	*topo.World
	flows int // traffic sources started (transports + noise), for fleet accounting

	// Reliable-file-transfer accounting: the per-world FCT aggregate and
	// the flows whose run totals fold into it when the world finishes.
	transfers *rft.TransferAgg
	rftFlows  []*rft.Flow

	// Effective fleet-jitter multipliers (1 = nominal); network applies
	// them to every spec and noiseInto to cross-traffic capacity, so one
	// cfg jitters the whole world consistently.
	rateScale, rttScale, lossScale float64
}

func newWorld(cfg topo.ScenarioConfig, a *exp.Arena) *world {
	w := &world{World: topo.NewWorld(a, cfg.Warmup)}
	w.rateScale, w.rttScale, w.lossScale = cfg.EffScales()
	return w
}

// network builds (or resets) the world's network from spec with the
// config's jitter scales applied — the one place every spec-based
// scenario goes through, so fleet jitter covers the whole catalog. The
// build seed is the uniform SubSeed(cfg.Seed, 2) world tag.
func (w *world) network(cfg topo.ScenarioConfig, spec topo.Spec) (*topo.Network, error) {
	spec = topo.ScaleSpec(spec, w.rateScale, w.rttScale, w.lossScale)
	return w.Network(spec, sim.SubSeed(cfg.Seed, 2))
}

// finish runs the world to cfg.Duration and measures it (topo.World.Finish),
// then adds what only catalog scenarios report: the traffic-source count
// and the file-transfer aggregate, with every transfer flow's run totals
// folded in (completions were observed online by trackTransfers).
func (w *world) finish(name string, cfg topo.ScenarioConfig, meanRTT sim.Duration) (*topo.ScenarioResult, error) {
	res, err := w.Finish(name, cfg.Duration, meanRTT)
	if err != nil {
		return nil, err
	}
	for _, f := range w.rftFlows {
		w.transfers.AddFlowTotals(f)
	}
	res.Flows = w.flows
	res.Transfers = w.transfers
	return res, nil
}

// startFlows wires one transport flow per declared endpoint pair — the
// family chosen by the spec's FlowSpec.Kind, sharing the world's packet
// pool — and staggers the starts over spread to avoid artificial global
// synchronization.
func (w *world) startFlows(net *topo.Network, cfg topo.ScenarioConfig, ssthresh float64, spread sim.Duration) {
	n := net.NumFlows()
	w.flows += n
	for i := 0; i < n; i++ {
		at := sim.Time(sim.Duration(i) * spread / sim.Duration(n))
		switch net.Flow(i).Kind {
		case topo.FlowRFT:
			f := rft.NewFlow(net.Sched, net.FlowSender(i), net.FlowReceiver(i), i+1, rft.Config{
				ChunkSize:  cfg.PktSize,
				Chunks:     rftFileChunks,
				InitialRTT: net.FlowRTT(i),
				// Per-flow branch of the scenario's seed chain, offset past
				// the world/noise tags (same scheme as the GCC flows).
				Seed: sim.SubSeed(cfg.Seed, int64(1000+i)),
				Pool: w.Pool,
			})
			w.trackTransfers(f, sim.Time(cfg.Warmup))
			f.StartAt(net.Sched, at)
		case topo.FlowGCC:
			f := ratectl.NewGCCFlow(net.Sched, net.FlowSender(i), net.FlowReceiver(i), i+1, ratectl.GCCConfig{
				PktSize:    cfg.PktSize,
				InitialRTT: net.FlowRTT(i),
				// Alternate the delay-gradient filter so scenario goldens pin
				// both implementations.
				Estimator: ratectl.EstimatorKind(i % 2),
				// Per-flow branch of the scenario's seed chain, offset past
				// the world/noise tags.
				Seed: sim.SubSeed(cfg.Seed, int64(1000+i)),
				Pool: w.Pool,
			})
			f.StartAt(net.Sched, at)
		default:
			f := tcp.NewPairFlow(net.Sched, net.FlowSender(i), net.FlowReceiver(i), i+1, tcp.Config{
				PktSize:         cfg.PktSize,
				InitialRTT:      net.FlowRTT(i),
				InitialSSThresh: ssthresh,
				Pool:            w.Pool,
			})
			f.StartAt(net.Sched, at)
		}
	}
}

// rftFileChunks is the per-transfer file length in chunks for registered
// RFT scenarios: at the default 1000-byte chunks each transfer moves
// ~512 KB, several seconds at megabit rates, so a golden-length run
// completes a handful of back-to-back transfers per flow.
const rftFileChunks = 512

// trackTransfers folds a transfer flow into the world's FCT aggregate:
// every completion at or after warm is observed and the flow restarts for
// the next back-to-back transfer; run totals fold in when the world
// finishes.
func (w *world) trackTransfers(f *rft.Flow, warm sim.Time) {
	if w.transfers == nil {
		w.transfers = rft.NewTransferAgg()
	}
	w.rftFlows = append(w.rftFlows, f)
	bytes := f.Sender.TransferBytes()
	f.Sender.OnComplete = func(at sim.Time) {
		if at >= warm {
			w.transfers.ObserveFCT(f.FCT(), bytes)
		}
		f.Restart()
	}
}

// absorb installs recycling packet sinks on the named nodes so injected
// cross traffic addressed to them disappears there and its packets return
// to the world's pool.
func (w *world) absorb(net *topo.Network, names ...string) {
	for _, name := range names {
		net.Node(name).BindDefault(w.Pool.Sink())
	}
}

// noiseInto starts an on–off noise ensemble injecting into port, addressed
// from srcAddr to the absorbing node dst. capacity is the NOMINAL rate of
// the congested resource; the world's rate jitter is applied here so the
// relative noise load survives fleet scaling.
func (w *world) noiseInto(net *topo.Network, port *netsim.Port, n int, capacity int64,
	fraction float64, flowBase int, srcAddr int, dst string, seed int64) {
	w.flows += n
	for _, nz := range crosstraffic.NoiseSet(net.Sched, port, n, topo.ScaleRate(capacity, w.rateScale),
		fraction, flowBase, srcAddr, net.Addr(dst), seed, w.Pool) {
		nz.Start()
	}
}

// runDumbbell is the paper's NS-2 setup (Figure 2) as a registered
// scenario: the nominal world of the one dumbbell runner.
func runDumbbell(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
	return BuildDumbbell(NS2Dumbbell(cfg.Seed, 16), cfg, a).Finish("dumbbell")
}

// runParkingLot chains several congested hops in series — the classic
// parking-lot topology. Every hop carries its own on–off cross traffic, so
// losses cluster independently at multiple queues along the path.
func runParkingLot(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
	cfg.FillDefaults()
	const (
		hops    = 3
		flows   = 8
		hopRate = 30_000_000
	)
	w := newWorld(cfg, a)
	rng := sim.NewRand(sim.SubSeed(cfg.Seed, 1))
	delays := netsim.RandomAccessDelays(rng, flows, 2*sim.Millisecond, 100*sim.Millisecond)

	// Mean base RTT: 2·access + 2·(per-hop delay · hops); used to size the
	// per-hop buffers before the network exists.
	hopDelay := 2 * sim.Millisecond
	var meanRTT sim.Duration
	for _, d := range delays {
		meanRTT += 2*d + 2*sim.Duration(hops)*hopDelay
	}
	meanRTT /= flows
	buffer := netsim.BDPBuffer(0.5, hopRate, meanRTT, cfg.PktSize)

	spec := topo.Spec{Name: "parking-lot"}
	for h := 0; h <= hops; h++ {
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: router(h)})
	}
	for h := 0; h < hops; h++ {
		spec.Links = append(spec.Links, topo.LinkSpec{
			A: router(h), B: router(h + 1),
			AB: topo.Dir{Rate: hopRate, Delay: hopDelay, Queue: topo.QueueSpec{Limit: buffer}},
			BA: topo.Dir{Rate: hopRate, Delay: hopDelay, Queue: topo.QueueSpec{Limit: topo.DefaultQueueLimit}},
		})
	}
	for i, d := range delays {
		snd, rcv := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		access := topo.Dir{Rate: 1_000_000_000, Delay: d / 2}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: router(0), AB: access},
			topo.LinkSpec{A: router(hops), B: rcv, AB: access},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: snd, To: rcv})
	}

	net, err := w.network(cfg, spec)
	if err != nil {
		return nil, err
	}

	var hopPorts []*netsim.Port
	for h := 0; h < hops; h++ {
		hopPorts = append(hopPorts, net.Port(router(h), router(h+1)))
	}
	w.ObserveDrops(hopPorts...)
	w.startFlows(net, cfg, float64(buffer), 2*sim.Second)

	// Per-hop cross traffic: each hop's ensemble enters at the hop's head
	// router and is absorbed one hop downstream, so hop j's noise loads
	// only queue j — the defining feature of the parking lot.
	routers := make([]string, hops+1)
	for h := range routers {
		routers[h] = router(h)
	}
	w.absorb(net, routers...)
	for h := 0; h < hops; h++ {
		w.noiseInto(net, hopPorts[h], 8, hopRate, 0.25, 100000+1000*h,
			net.Addr(router(h)), router(h+1), sim.SubSeed(cfg.Seed, int64(10+h)))
	}

	return w.finish("parking-lot", cfg, net.MeanFlowRTT())
}

func router(h int) string { return fmt.Sprintf("R%d", h) }

// runAccessTree models the shared-access tree: leaves with individual
// access links all feed one congested uplink toward a server — the
// broadband/campus aggregation shape, where every leaf's losses happen at
// the same shared queue.
func runAccessTree(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
	cfg.FillDefaults()
	const (
		leaves     = 8
		uplinkRate = 20_000_000
		leafRate   = 100_000_000
	)
	w := newWorld(cfg, a)
	rng := sim.NewRand(sim.SubSeed(cfg.Seed, 1))
	delays := netsim.RandomAccessDelays(rng, leaves, sim.Millisecond, 60*sim.Millisecond)

	var meanRTT sim.Duration
	for _, d := range delays {
		meanRTT += 2 * (d + 2*sim.Millisecond + sim.Millisecond)
	}
	meanRTT /= leaves
	buffer := netsim.BDPBuffer(0.5, uplinkRate, meanRTT, cfg.PktSize)

	spec := topo.Spec{Name: "access-tree"}
	spec.Nodes = append(spec.Nodes,
		topo.NodeSpec{Name: "edge"},
		topo.NodeSpec{Name: "core"},
		topo.NodeSpec{Name: "server"},
	)
	spec.Links = append(spec.Links,
		// The congested uplink: edge → core carries every leaf's data.
		topo.LinkSpec{
			A: "edge", B: "core",
			AB: topo.Dir{Rate: uplinkRate, Delay: 2 * sim.Millisecond, Queue: topo.QueueSpec{Limit: buffer}},
			BA: topo.Dir{Rate: uplinkRate, Delay: 2 * sim.Millisecond, Queue: topo.QueueSpec{Limit: topo.DefaultQueueLimit}},
		},
		topo.LinkSpec{
			A: "core", B: "server",
			AB: topo.Dir{Rate: 1_000_000_000, Delay: sim.Millisecond},
		},
	)
	for i, d := range delays {
		leaf := fmt.Sprintf("leaf%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: leaf})
		spec.Links = append(spec.Links, topo.LinkSpec{
			A: leaf, B: "edge",
			AB: topo.Dir{Rate: leafRate, Delay: d},
		})
		spec.Flows = append(spec.Flows, topo.FlowSpec{From: leaf, To: "server"})
	}

	net, err := w.network(cfg, spec)
	if err != nil {
		return nil, err
	}

	uplink := net.Port("edge", "core")
	w.ObserveDrops(uplink)
	w.startFlows(net, cfg, float64(buffer), 2*sim.Second)

	w.absorb(net, "edge", "core")
	w.noiseInto(net, uplink, 10, uplinkRate, 0.15, 100000,
		net.Addr("edge"), "core", sim.SubSeed(cfg.Seed, 3))

	return w.finish("access-tree", cfg, net.MeanFlowRTT())
}

// runHeteroMesh routes flow pairs with PlanetLab-derived RTTs over a
// backbone with two unequal bottlenecks in series — wide-area RTT
// heterogeneity (2 ms to 350 ms) meeting multiple congestion points, the
// closest registered shape to the paper's Internet measurements.
func runHeteroMesh(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
	cfg.FillDefaults()
	const (
		pairs     = 8
		westRate  = 60_000_000
		eastRate  = 40_000_000
		coreDelay = 5 * sim.Millisecond
	)
	w := newWorld(cfg, a)

	// Path RTTs come from the synthetic PlanetLab mesh: pick site pairs
	// deterministically and fold each pair's wide-area latency into its
	// two access links, with the 2·coreDelay backbone in the middle.
	mesh := planetlab.NewMesh(cfg.Seed)
	rng := sim.NewRand(sim.SubSeed(cfg.Seed, 1))
	sitePairs := mesh.RandomPairs(rng, pairs)

	var meanRTT sim.Duration
	access := make([]sim.Duration, pairs)
	for i, p := range sitePairs {
		rtt := mesh.PathParams(p[0], p[1]).RTT
		// Per-side access delay so the base RTT ≈ the PlanetLab path RTT.
		a := (rtt - 4*coreDelay) / 4
		if a < sim.Millisecond {
			a = sim.Millisecond
		}
		access[i] = a
		meanRTT += 4*a + 4*coreDelay
	}
	meanRTT /= pairs
	westBuf := netsim.BDPBuffer(0.5, westRate, meanRTT, cfg.PktSize)
	eastBuf := netsim.BDPBuffer(0.5, eastRate, meanRTT, cfg.PktSize)

	spec := topo.Spec{Name: "hetero-mesh"}
	spec.Nodes = append(spec.Nodes,
		topo.NodeSpec{Name: "B0"}, topo.NodeSpec{Name: "B1"}, topo.NodeSpec{Name: "B2"},
	)
	spec.Links = append(spec.Links,
		topo.LinkSpec{
			A: "B0", B: "B1",
			AB: topo.Dir{Rate: westRate, Delay: coreDelay, Queue: topo.QueueSpec{Limit: westBuf}},
			BA: topo.Dir{Rate: westRate, Delay: coreDelay, Queue: topo.QueueSpec{Limit: topo.DefaultQueueLimit}},
		},
		topo.LinkSpec{
			A: "B1", B: "B2",
			AB: topo.Dir{Rate: eastRate, Delay: coreDelay, Queue: topo.QueueSpec{Limit: eastBuf}},
			BA: topo.Dir{Rate: eastRate, Delay: coreDelay, Queue: topo.QueueSpec{Limit: topo.DefaultQueueLimit}},
		},
	)
	for i, p := range sitePairs {
		src := mesh.Sites[p[0]]
		snd, rcv := fmt.Sprintf("s%d", i), fmt.Sprintf("r%d", i)
		spec.Nodes = append(spec.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		dir := topo.Dir{Rate: 1_000_000_000, Delay: access[i]}
		spec.Links = append(spec.Links,
			topo.LinkSpec{A: snd, B: "B0", AB: dir},
			topo.LinkSpec{A: "B2", B: rcv, AB: dir},
		)
		spec.Flows = append(spec.Flows, topo.FlowSpec{
			Label: fmt.Sprintf("%s→%s", src.Host, mesh.Sites[p[1]].Host),
			From:  snd,
			To:    rcv,
		})
	}

	net, err := w.network(cfg, spec)
	if err != nil {
		return nil, err
	}

	west, east := net.Port("B0", "B1"), net.Port("B1", "B2")
	w.ObserveDrops(west, east)
	w.startFlows(net, cfg, float64(westBuf), 2*sim.Second)

	w.absorb(net, "B0", "B1", "B2")
	w.noiseInto(net, west, 8, westRate, 0.2, 100000, net.Addr("B0"), "B1", sim.SubSeed(cfg.Seed, 3))
	w.noiseInto(net, east, 8, eastRate, 0.2, 200000, net.Addr("B1"), "B2", sim.SubSeed(cfg.Seed, 4))

	return w.finish("hetero-mesh", cfg, net.MeanFlowRTT())
}
