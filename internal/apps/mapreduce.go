package apps

import (
	"fmt"
	"slices"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// ShuffleConfig models the paper's future-work workload (§6): the
// all-to-all shuffle of a MapReduce job. M mapper hosts each transfer a
// partition to every one of R reducer hosts — M·R simultaneous TCP flows
// crossing a shared core and contending again on each reducer's access
// link (the classic incast pattern). The core runs at shuffleCoreRate and
// every host's access link at shuffleAccessRate.
type ShuffleConfig struct {
	Mappers  int // default 8
	Reducers int // default 8
	// BytesPerPartition is the volume of each mapper→reducer transfer
	// (default 2 MB).
	BytesPerPartition int64

	// RTT is the base host-to-host round trip (default 10 ms, a
	// datacenter-ish value scaled up so sub-RTT effects are visible).
	RTT sim.Duration

	// Paced selects the rate-based implementation for all flows.
	Paced bool

	// Timeout bounds the run (default 10 simulated minutes).
	Timeout sim.Duration
}

// Shuffle link capacities in bits/second: the shared core and each host's
// access link.
const (
	shuffleCoreRate   = 1_000_000_000
	shuffleAccessRate = 100_000_000
)

func (c *ShuffleConfig) fillDefaults() {
	if c.Mappers == 0 {
		c.Mappers = 8
	}
	if c.Reducers == 0 {
		c.Reducers = 8
	}
	if c.BytesPerPartition == 0 {
		c.BytesPerPartition = 2 << 20
	}
	if c.RTT == 0 {
		c.RTT = 10 * sim.Millisecond
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * 60 * sim.Second
	}
}

// ShuffleResult reports one shuffle execution.
type ShuffleResult struct {
	// Completion is when the last flow finished (the shuffle makespan).
	Completion sim.Duration
	// PerReducer is each reducer's last-flow completion time.
	PerReducer []sim.Duration
	// LowerBound is the per-reducer volume divided by the reducer access
	// rate — the floor set by the incast bottleneck.
	LowerBound sim.Duration
	// Finished reports whether every flow completed before Timeout.
	Finished bool
	// Straggler is max(PerReducer)/min(PerReducer): the imbalance bursty
	// loss induces between identical reducers.
	Straggler float64
	// CongestionEvents and Timeouts total across flows.
	CongestionEvents uint64
	Timeouts         uint64
}

// Normalized returns Completion/LowerBound.
func (r ShuffleResult) Normalized() float64 {
	if r.LowerBound <= 0 {
		return 0
	}
	return float64(r.Completion) / float64(r.LowerBound)
}

// shuffleSpec is the shuffle's world: routers L and R at addresses 1 and
// 2 joined by the core link, mapper m at 1000+m behind L and reducer r at
// 2000+r behind R, each on its own access link carrying a quarter of the
// RTT (four access crossings per round trip). Flow m·Reducers+r carries
// mapper m's partition to reducer r.
func shuffleSpec(cfg ShuffleConfig) topo.Spec {
	coreBuf := max(netsim.BDP(shuffleCoreRate, cfg.RTT, pktSize)/2, 16)
	accessBuf := max(netsim.BDP(shuffleAccessRate, cfg.RTT, pktSize)/2, 16)
	access := topo.Dir{Rate: shuffleAccessRate, Delay: cfg.RTT / 4, Queue: topo.QueueSpec{Limit: accessBuf}}
	s := topo.Spec{
		Name:  "shuffle",
		Nodes: []topo.NodeSpec{{Name: "L", Addr: 1}, {Name: "R", Addr: 2}},
		Links: []topo.LinkSpec{{A: "L", B: "R", AB: topo.Dir{Rate: shuffleCoreRate, Queue: topo.QueueSpec{Limit: coreBuf}}}},
	}
	for m := 0; m < cfg.Mappers; m++ {
		name := fmt.Sprintf("m%d", m)
		s.Nodes = append(s.Nodes, topo.NodeSpec{Name: name, Addr: 1000 + m})
		s.Links = append(s.Links, topo.LinkSpec{A: name, B: "L", AB: access})
	}
	for r := 0; r < cfg.Reducers; r++ {
		name := fmt.Sprintf("r%d", r)
		s.Nodes = append(s.Nodes, topo.NodeSpec{Name: name, Addr: 2000 + r})
		s.Links = append(s.Links, topo.LinkSpec{A: "R", B: name, AB: access})
	}
	for m := 0; m < cfg.Mappers; m++ {
		for r := 0; r < cfg.Reducers; r++ {
			s.Flows = append(s.Flows, topo.FlowSpec{From: fmt.Sprintf("m%d", m), To: fmt.Sprintf("r%d", r)})
		}
	}
	return s
}

// RunShuffle executes one all-to-all shuffle on a fresh world.
func RunShuffle(cfg ShuffleConfig) ShuffleResult {
	cfg.fillDefaults()
	if cfg.Mappers <= 0 || cfg.Reducers <= 0 {
		panic(fmt.Sprintf("apps: bad shuffle config %+v", cfg))
	}
	w := topo.NewWorld(nil, 0)
	sched := w.Sched
	net, err := w.Network(shuffleSpec(cfg), 0)
	if err != nil {
		panic(fmt.Sprintf("apps: shuffle spec did not build: %v", err))
	}

	// One TCP flow per (mapper, reducer) pair.
	pkts := (cfg.BytesPerPartition + pktSize - 1) / pktSize
	remaining := net.NumFlows()
	done := func(at sim.Time) {
		remaining--
		if remaining == 0 {
			sched.Halt()
		}
	}
	flows := make([]*tcp.Flow, net.NumFlows())
	for i := range flows {
		flows[i] = tcp.NewPairFlow(sched, net.FlowSender(i), net.FlowReceiver(i), i+1, tcp.Config{
			PktSize:      pktSize,
			TotalPackets: pkts,
			Paced:        cfg.Paced,
			InitialRTT:   cfg.RTT,
			Pool:         w.Pool,
		})
		flows[i].Sender.OnComplete = done
		// Stagger starts over a few ms, as real shuffle fetches do.
		sched.At(sim.Time(sim.Duration(i)*sim.Millisecond/4), flows[i].Sender.Start)
	}

	sched.RunUntil(sim.Time(cfg.Timeout))

	res := ShuffleResult{
		PerReducer: make([]sim.Duration, cfg.Reducers),
		LowerBound: sim.Duration(float64(cfg.BytesPerPartition*int64(cfg.Mappers)*8) /
			float64(shuffleAccessRate) * float64(sim.Second)),
		Finished: true,
	}
	for i, f := range flows {
		done := cfg.Timeout
		if f.Sender.Done() {
			done = sim.Duration(f.Sender.CompletedAt)
		} else {
			res.Finished = false
		}
		r := i % cfg.Reducers
		res.PerReducer[r] = max(res.PerReducer[r], done)
		res.Completion = max(res.Completion, done)
		res.CongestionEvents += f.Sender.CongestionEvents
		res.Timeouts += f.Sender.Timeouts
	}
	if minR := slices.Min(res.PerReducer); minR > 0 {
		res.Straggler = float64(res.Completion) / float64(minR)
	}
	return res
}
