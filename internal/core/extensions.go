package core

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/ratectl"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// TFRCCompConfig sets up the TFRC-vs-NewReno competition the paper cites
// (Rhee & Xu): equal numbers of TFRC and TCP NewReno flows share a
// DropTail bottleneck; because TFRC's packets are evenly spaced, it
// detects more of the bursty loss events and loses throughput.
type TFRCCompConfig struct {
	Seed           int64
	FlowsPerClass  int          // default 8
	BottleneckRate int64        // default 100 Mbps
	RTT            sim.Duration // default 50 ms
	PktSize        int          // default 1000
	Duration       sim.Duration // default 60 s
	BufferBDPFrac  float64      // default 0.5
}

func (c *TFRCCompConfig) fillDefaults() {
	if c.FlowsPerClass == 0 {
		c.FlowsPerClass = 8
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 100_000_000
	}
	if c.RTT == 0 {
		c.RTT = 50 * sim.Millisecond
	}
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
	if c.BufferBDPFrac == 0 {
		c.BufferBDPFrac = 0.5
	}
}

// TFRCCompResult compares the two aggregates.
type TFRCCompResult struct {
	TFRCBytes    uint64
	NewRenoBytes uint64
	// Deficit is 1 − tfrc/newreno.
	Deficit float64
	// TFRC loss-event awareness: mean loss event rate reported.
	TFRCLossRate float64
	// Events is the number of simulated events the world executed.
	Events uint64
}

// RunTFRCCompetition executes the mixed TFRC/TCP experiment on a fresh
// arena.
func RunTFRCCompetition(cfg TFRCCompConfig) (*TFRCCompResult, error) {
	return runTFRCCompetition(cfg, nil)
}

// runTFRCCompetition builds and runs one competition world on the arena
// (nil: a fresh one).
func runTFRCCompetition(cfg TFRCCompConfig, a *exp.Arena) (*TFRCCompResult, error) {
	cfg.fillDefaults()
	w := topo.NewWorld(a, 0)
	sched, pool := w.Sched, w.Pool

	n := cfg.FlowsPerClass
	delays := make([]sim.Duration, 2*n)
	for i := range delays {
		delays[i] = cfg.RTT / 2
	}
	buffer := bdpBuffer(cfg.BufferBDPFrac, cfg.BottleneckRate, cfg.RTT, cfg.PktSize)
	d := w.Dumbbell(netsim.DumbbellConfig{
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 0,
		AccessRate:      1_000_000_000,
		AccessDelays:    delays,
		Buffer:          buffer,
	})

	// TCP NewReno flows on pairs [0,n). The TFRC pairs allocate plainly
	// (their equation-paced rate is low); the ports still recycle whatever
	// they drop, regardless of where a packet was allocated.
	var tcps []*tcp.Flow
	for i := 0; i < n; i++ {
		tcps = append(tcps, tcp.NewPairFlow(sched, d.SenderNode(i), d.ReceiverNode(i), i+1, tcp.Config{
			PktSize:    cfg.PktSize,
			InitialRTT: cfg.RTT,
			Pool:       pool,
		}))
	}
	// TFRC flows on pairs [n,2n).
	type tfrcPair struct {
		snd *ratectl.TFRCSender
		rcv *ratectl.TFRCReceiver
	}
	var tfrcs []tfrcPair
	for i := n; i < 2*n; i++ {
		flowID := i + 1
		tcfg := ratectl.TFRCConfig{
			Flow:       flowID,
			Src:        netsim.SenderAddr(i),
			Dst:        netsim.ReceiverAddr(i),
			PktSize:    cfg.PktSize,
			InitialRTT: cfg.RTT,
		}
		snd := ratectl.NewTFRCSender(sched, d.SenderNode(i), tcfg)
		rcv := ratectl.NewTFRCReceiver(sched, d.ReceiverNode(i), tcfg)
		d.ReceiverNode(i).Bind(flowID, rcv)
		d.SenderNode(i).Bind(flowID, snd)
		tfrcs = append(tfrcs, tfrcPair{snd, rcv})
	}

	for i := 0; i < n; i++ {
		off := sim.Duration(i) * 100 * sim.Millisecond / sim.Duration(n)
		i := i
		sched.At(sim.Time(off), tcps[i].Sender.Start)
		sched.At(sim.Time(off+50*sim.Millisecond/sim.Duration(n)), tfrcs[i].snd.Start)
	}

	sched.RunUntil(sim.Time(cfg.Duration))

	res := &TFRCCompResult{Events: sched.Fired()}
	for _, f := range tcps {
		res.NewRenoBytes += uint64(f.Receiver.CumAck()) * uint64(cfg.PktSize)
	}
	var lossSum float64
	for _, p := range tfrcs {
		res.TFRCBytes += p.rcv.Received * uint64(cfg.PktSize)
		lossSum += p.snd.LastLossRate
	}
	res.TFRCLossRate = lossSum / float64(n)
	if res.NewRenoBytes == 0 {
		return nil, fmt.Errorf("core: TFRC competition NewReno delivered nothing")
	}
	res.Deficit = 1 - float64(res.TFRCBytes)/float64(res.NewRenoBytes)
	return res, nil
}

// ECNCoverageConfig compares how widely the congestion signal is
// distributed across flows under three bottleneck configurations:
// DropTail drops (the bursty baseline), standard RED+ECN marks, and the
// paper's proposed persistent RED+ECN that marks every flow for one RTT
// after a congestion decision (reference [22]).
type ECNCoverageConfig struct {
	Seed           int64
	Flows          int          // default 16
	BottleneckRate int64        // default 100 Mbps
	RTT            sim.Duration // default 50 ms
	PktSize        int          // default 1000
	Duration       sim.Duration // default 30 s
}

func (c *ECNCoverageConfig) fillDefaults() {
	if c.Flows == 0 {
		c.Flows = 16
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 100_000_000
	}
	if c.RTT == 0 {
		c.RTT = 50 * sim.Millisecond
	}
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.Duration == 0 {
		c.Duration = 30 * sim.Second
	}
}

// ECNMode selects the bottleneck discipline for one coverage run.
type ECNMode int

// The three compared configurations.
const (
	ModeDropTail ECNMode = iota
	ModeRedECN
	ModePersistentECN
)

func (m ECNMode) String() string {
	switch m {
	case ModeDropTail:
		return "droptail"
	case ModeRedECN:
		return "red+ecn"
	case ModePersistentECN:
		return "persistent-ecn"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// ECNCoverageResult reports signal coverage for one mode.
type ECNCoverageResult struct {
	Mode ECNMode
	// FlowsSignaledPerEpoch is the mean number of distinct flows that
	// received a congestion signal (drop or mark) per congestion epoch
	// (epochs are RTT-grouped signal bursts).
	FlowsSignaledPerEpoch float64
	// CoverageFraction is that mean divided by the flow count: the
	// paper's goal is coverage ≈ 1 under persistent ECN.
	CoverageFraction float64
	// Epochs counts congestion epochs observed.
	Epochs int
	// AggregatePkts is total delivered packets (sanity: the fix must not
	// collapse throughput).
	AggregatePkts int64
	// FairnessIndex is Jain's index over per-flow goodput.
	FairnessIndex float64
	// Events is the number of simulated events the world executed.
	Events uint64
}

// RunECNCoverage executes one coverage run for the given mode on a fresh
// arena.
func RunECNCoverage(cfg ECNCoverageConfig, mode ECNMode) (*ECNCoverageResult, error) {
	return runECNCoverage(cfg, mode, nil)
}

// runECNCoverage builds and runs one coverage world on the arena (nil: a
// fresh one).
func runECNCoverage(cfg ECNCoverageConfig, mode ECNMode, a *exp.Arena) (*ECNCoverageResult, error) {
	cfg.fillDefaults()
	w := topo.NewWorld(a, 0)
	sched, pool := w.Sched, w.Pool
	rng := sim.NewRand(sim.SubSeed(cfg.Seed, int64(100+mode)))

	// Spread RTTs ±20% around the nominal so flows are not artificially
	// phase-locked (the paper's scenarios always have RTT diversity).
	delays := make([]sim.Duration, cfg.Flows)
	for i := range delays {
		frac := 0.8 + 0.4*float64(i)/float64(maxI(cfg.Flows-1, 1))
		delays[i] = sim.Duration(frac * float64(cfg.RTT) / 2)
	}
	buffer := bdpBuffer(0.5, cfg.BottleneckRate, cfg.RTT, cfg.PktSize)

	var queue netsim.Queue
	switch mode {
	case ModeDropTail:
		queue = nil // default DropTail
	case ModeRedECN, ModePersistentECN:
		rc := netsim.REDConfig{
			Limit:            buffer,
			MinTh:            float64(buffer) / 6,
			MaxTh:            float64(buffer) / 2,
			MaxP:             0.1,
			ECN:              true,
			PacketsPerSecond: float64(cfg.BottleneckRate) / float64(cfg.PktSize*8),
		}
		if mode == ModePersistentECN {
			rc.PersistMark = cfg.RTT.Seconds()
		}
		queue = netsim.NewRED(rc, rng)
	}

	d := w.Dumbbell(netsim.DumbbellConfig{
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 0,
		AccessRate:      1_000_000_000,
		AccessDelays:    delays,
		Buffer:          buffer,
		Queue:           queue,
	})

	// Signal log: (time, flow) of every drop and every mark.
	type signal struct {
		at   sim.Time
		flow int
	}
	var signals []signal
	d.Forward.OnDrop = func(p *netsim.Packet, at sim.Time) {
		signals = append(signals, signal{at, p.Flow})
	}

	useECN := mode != ModeDropTail
	flows := make([]*tcp.Flow, cfg.Flows)
	for i := range flows {
		flows[i] = tcp.NewPairFlow(sched, d.SenderNode(i), d.ReceiverNode(i), i+1, tcp.Config{
			PktSize:    cfg.PktSize,
			InitialRTT: cfg.RTT,
			ECN:        useECN,
			Pool:       pool,
		})
		// Record marks as signals at the receiver (a CE mark reaching the
		// receiver is the signal delivered to that flow).
		flowID := i + 1
		flows[i].Receiver.OnData = func(p *netsim.Packet, at sim.Time) {
			if p.CE {
				signals = append(signals, signal{at, flowID})
			}
		}
	}
	for i, f := range flows {
		f.StartAt(sched, sim.Time(sim.Duration(i)*100*sim.Millisecond/sim.Duration(cfg.Flows)))
	}

	sched.RunUntil(sim.Time(cfg.Duration))

	if len(signals) == 0 {
		return nil, fmt.Errorf("core: ECN coverage run (%v) saw no congestion signals", mode)
	}

	// Group signals into bursts separated by ≥ RTT/2 of silence and count
	// the distinct flows signaled within one RTT of each burst's start —
	// the paper's question: does one congestion event inform every flow
	// within an RTT?
	res := &ECNCoverageResult{Mode: mode, Events: sched.Fired()}
	gap := cfg.RTT / 2
	var epochFlows map[int]struct{}
	var last, epochStart sim.Time
	var totalFlows int
	flush := func() {
		if epochFlows != nil {
			res.Epochs++
			totalFlows += len(epochFlows)
		}
		epochFlows = nil
	}
	for _, s := range signals {
		if epochFlows == nil || s.at.Sub(last) > gap {
			flush()
			epochFlows = map[int]struct{}{}
			epochStart = s.at
		}
		if s.at.Sub(epochStart) <= cfg.RTT {
			epochFlows[s.flow] = struct{}{}
		}
		last = s.at
	}
	flush()

	if res.Epochs > 0 {
		res.FlowsSignaledPerEpoch = float64(totalFlows) / float64(res.Epochs)
		res.CoverageFraction = res.FlowsSignaledPerEpoch / float64(cfg.Flows)
	}
	var sum, sumSq float64
	for _, f := range flows {
		g := float64(f.Receiver.CumAck())
		res.AggregatePkts += f.Receiver.CumAck()
		sum += g
		sumSq += g * g
	}
	if sumSq > 0 {
		res.FairnessIndex = sum * sum / (float64(cfg.Flows) * sumSq)
	}
	return res, nil
}

func maxI(a, b int) int {
	if a > b {
		return a
	}
	return b
}
