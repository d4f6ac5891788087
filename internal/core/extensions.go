package core

import (
	"fmt"

	"repro/internal/analysis"
	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/topo/scenarios"
	"repro/internal/trace"
)

// TFRCCompConfig sets up the TFRC-vs-NewReno competition the paper cites
// (Rhee & Xu): equal numbers of TFRC and TCP NewReno flows share a
// 100 Mbps DropTail bottleneck with a half-BDP buffer at a 50 ms RTT;
// because TFRC's packets are evenly spaced, it detects more of the bursty
// loss events and loses throughput.
type TFRCCompConfig struct {
	Seed          int64
	FlowsPerClass int          // default 8
	Duration      sim.Duration // default 60 s
}

func (c *TFRCCompConfig) fillDefaults() {
	if c.FlowsPerClass == 0 {
		c.FlowsPerClass = 8
	}
	if c.Duration == 0 {
		c.Duration = 60 * sim.Second
	}
}

// extensionRTT is the base RTT of the TFRC and ECN extension worlds, and
// pktSize the TFRC competition's segment size, which its byte counts
// read.
const (
	extensionRTT = 50 * sim.Millisecond
	pktSize      = 1000
)

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

// runTFRCCompetition builds and runs one competition world on the arena
// (nil: a fresh one): NewReno on the first FlowsPerClass pairs, TFRC on
// the rest.
func runTFRCCompetition(cfg TFRCCompConfig, a *exp.Arena) (*TFRCCompResult, error) {
	cfg.fillDefaults()
	n := cfg.FlowsPerClass
	b := scenarios.BuildDumbbell(scenarios.Competition(n, extensionRTT, scenarios.TFRC),
		topo.ScenarioConfig{Seed: cfg.Seed, Duration: cfg.Duration, PktSize: pktSize}, a)
	b.Run()

	res := &TFRCCompResult{Events: b.Sched.Fired()}
	for _, f := range b.TCP {
		res.NewRenoBytes += uint64(f.Receiver.CumAck()) * pktSize
	}
	var lossSum float64
	for i, rcv := range b.TFRCReceivers {
		res.TFRCBytes += rcv.Received * pktSize
		lossSum += b.TFRCSenders[i].LastLossRate
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
// after a congestion decision (reference [22]). The bottleneck is
// 100 Mbps with a half-BDP buffer at a 50 ms RTT.
type ECNCoverageConfig struct {
	Seed     int64
	Flows    int          // default 16
	Duration sim.Duration // default 30 s
}

func (c *ECNCoverageConfig) fillDefaults() {
	if c.Flows == 0 {
		c.Flows = 16
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

// runECNCoverage builds and runs one coverage world on the arena (nil: a
// fresh one).
func runECNCoverage(cfg ECNCoverageConfig, mode ECNMode, a *exp.Arena) (*ECNCoverageResult, error) {
	cfg.fillDefaults()

	// Spread RTTs ±20% around the nominal so flows are not artificially
	// phase-locked (the paper's scenarios always have RTT diversity). The
	// world is still sized at, and every flow starts from, the nominal RTT.
	p := scenarios.Dumbbell{
		Delays:        netsim.SpreadAccessDelays(cfg.Flows, extensionRTT),
		RTT:           extensionRTT,
		BufferBDPFrac: 0.5,
		Spread:        100 * sim.Millisecond,
	}
	if mode != ModeDropTail {
		var persist float64
		if mode == ModePersistentECN {
			persist = extensionRTT.Seconds()
		}
		p.Queue = redQueue(sim.SubSeed(cfg.Seed, int64(100+mode)), true, persist)
	}
	b := scenarios.BuildDumbbell(p, topo.ScenarioConfig{Seed: cfg.Seed, Duration: cfg.Duration}, a)

	// Signal log: every drop, and every CE mark as it reaches its
	// receiver — the signal delivered to that flow.
	var signals []trace.LossEvent
	b.Bottleneck.OnDrop = func(p *netsim.Packet, at sim.Time) {
		signals = append(signals, trace.LossEvent{At: at, Flow: p.Flow})
	}
	for i, f := range b.TCP {
		flowID := i + 1
		f.Receiver.OnData = func(p *netsim.Packet, at sim.Time) {
			if p.CE {
				signals = append(signals, trace.LossEvent{At: at, Flow: flowID})
			}
		}
	}
	b.Run()

	if len(signals) == 0 {
		return nil, fmt.Errorf("core: ECN coverage run (%v) saw no congestion signals", mode)
	}

	// Group signals into bursts separated by more than RTT/2 of silence
	// and count the distinct flows signaled within one RTT of each burst's
	// start — the paper's question: does one congestion event inform
	// every flow within an RTT? Signals arrive in time order.
	res := &ECNCoverageResult{Mode: mode, Events: b.Sched.Fired()}
	bursts := analysis.GroupBursts(signals, extensionRTT/2)
	res.Epochs = len(bursts)
	var totalFlows int
	for _, burst := range bursts {
		k := 0
		for k < len(burst) && burst[k].At.Sub(burst[0].At) <= extensionRTT {
			k++
		}
		totalFlows += analysis.DistinctFlows(burst[:k])
	}
	res.FlowsSignaledPerEpoch = float64(totalFlows) / float64(res.Epochs)
	res.CoverageFraction = res.FlowsSignaledPerEpoch / float64(cfg.Flows)
	var sum, sumSq float64
	for _, f := range b.TCP {
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
