// Package apps models the distributed-application workloads of the
// paper's Section 4.2: a GridFTP/GFS-style parallel transfer that splits a
// fixed volume evenly over N TCP flows and completes when the slowest flow
// finishes. The paper's Figure 8 plots the completion latency, normalized
// by the theoretic lower bound, against flow count and RTT.
package apps

import (
	"fmt"
	"strconv"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// pairFlowCache is the arena-scratch value RunParallelIn keeps per flow
// count: the flows plus the world they were built on, so a rebuilt world
// invalidates them.
type pairFlowCache struct {
	net   *topo.Network
	flows []*tcp.Flow
}

// ParallelConfig describes one parallel-transfer experiment.
type ParallelConfig struct {
	// TotalBytes is the data volume split across flows (64 MB in the
	// paper).
	TotalBytes int64
	// Flows is the number of parallel TCP connections.
	Flows int
	// PktSize is the TCP segment size in bytes.
	PktSize int
	// Paced selects the rate-based implementation for all flows.
	Paced bool
	// RTT is each flow's two-way propagation delay (all flows share it,
	// as in the paper's Figure 8 setup).
	RTT sim.Duration
	// BottleneckRate is the shared capacity in bits/second.
	BottleneckRate int64
	// Buffer is the bottleneck buffer in packets; 0 derives 1/2 BDP
	// (min 10).
	Buffer int
	// Timeout aborts the run; 0 means 10 minutes of simulated time.
	Timeout sim.Duration
}

func (c *ParallelConfig) fillDefaults() {
	if c.TotalBytes == 0 {
		c.TotalBytes = 64 << 20
	}
	if c.Flows == 0 {
		c.Flows = 4
	}
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 100_000_000
	}
	if c.Buffer == 0 {
		c.Buffer = netsim.BDP(c.BottleneckRate, c.RTT, c.PktSize) / 2
		if c.Buffer < 10 {
			c.Buffer = 10
		}
	}
	if c.Timeout == 0 {
		c.Timeout = 10 * 60 * sim.Second
	}
}

// ParallelResult reports one run.
type ParallelResult struct {
	// Completion is the time the slowest flow finished (the transfer
	// latency).
	Completion sim.Duration
	// PerFlow lists each flow's completion time.
	PerFlow []sim.Duration
	// LowerBound is the theoretic minimum: total bits / capacity plus one
	// RTT of startup (5.39 s for 64 MB at 100 Mbps in the paper).
	LowerBound sim.Duration
	// Finished reports whether every flow completed before Timeout.
	Finished bool
	// CongestionEvents totals window reductions across flows.
	CongestionEvents uint64
	// Timeouts totals RTO events across flows.
	Timeouts uint64
	// Events is the number of simulated events the run executed
	// (Scheduler.Fired), the cost-accounting side of the latency result.
	Events uint64
}

// Normalized returns Completion/LowerBound, the Y axis of the paper's
// Figure 8.
func (r ParallelResult) Normalized() float64 {
	if r.LowerBound <= 0 {
		return 0
	}
	return float64(r.Completion) / float64(r.LowerBound)
}

// RunParallel executes one parallel transfer on a fresh dumbbell.
func RunParallel(cfg ParallelConfig) ParallelResult {
	return RunParallelIn(cfg, exp.NewArena())
}

// RunParallelIn is RunParallel on a caller-provided arena — the
// scratch-reuse form replication sweeps drive with a per-worker arena, so
// back-to-back transfers share one event freelist, one packet population
// and one compiled-and-instantiated dumbbell (reset per run via
// topo.NetworkIn, not rebuilt). The arena's scheduler is Reset on access,
// which makes a reused world bit-identical to a fresh one.
func RunParallelIn(cfg ParallelConfig, a *exp.Arena) ParallelResult {
	cfg.fillDefaults()
	if cfg.Flows <= 0 || cfg.TotalBytes <= 0 {
		panic(fmt.Sprintf("apps: bad parallel config %+v", cfg))
	}

	sched := a.Scheduler()
	pool := a.Pool()
	delays := make([]sim.Duration, cfg.Flows)
	for i := range delays {
		// The dumbbell builder gives RTT = 2·access + 2·bottleneck delay;
		// fold everything into access delay with a negligible bottleneck
		// delay.
		delays[i] = cfg.RTT / 2
	}
	d := topo.NewDumbbell(a, sched, netsim.DumbbellConfig{
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 0,
		AccessRate:      10 * cfg.BottleneckRate,
		AccessDelays:    delays,
		Buffer:          cfg.Buffer,
	})
	d.AttachPool(pool)

	totalPkts := (cfg.TotalBytes + int64(cfg.PktSize) - 1) / int64(cfg.PktSize)
	perFlow := totalPkts / int64(cfg.Flows)
	rem := totalPkts % int64(cfg.Flows)
	flowCfg := func(i int) tcp.Config {
		quota := perFlow
		if int64(i) < rem {
			quota++
		}
		return tcp.Config{
			PktSize:      cfg.PktSize,
			TotalPackets: quota,
			Paced:        cfg.Paced,
			InitialRTT:   cfg.RTT,
			Pool:         pool,
		}
	}

	// Flows ride the arena too: a cached world keeps its endpoint nodes, so
	// the pair flows built on them rewind (ResetPair) instead of being
	// reconstructed — the receivers' warm out-of-order maps are most of a
	// repeat run's remaining allocations. The cache is validated against the
	// world instance: if NetworkIn rebuilt the dumbbell, the flows rebuild.
	key := "apps/pairflows/" + strconv.Itoa(cfg.Flows)
	var flows []*tcp.Flow
	if v, ok := a.Scratch(key).(*pairFlowCache); ok && v.net == d.Net {
		flows = v.flows
		for i, f := range flows {
			f.ResetPair(d.SenderNode(i), d.ReceiverNode(i), i+1, flowCfg(i))
		}
	} else {
		flows = make([]*tcp.Flow, cfg.Flows)
		for i := range flows {
			flows[i] = tcp.NewPairFlow(sched, d.SenderNode(i), d.ReceiverNode(i), i+1, flowCfg(i))
		}
		a.SetScratch(key, &pairFlowCache{net: d.Net, flows: flows})
	}
	// One shared completion closure for all flows (not one per flow —
	// closures are a per-run allocation a sweep pays thousands of times).
	remaining := cfg.Flows
	done := func(at sim.Time) {
		remaining--
		if remaining == 0 {
			sched.Halt()
		}
	}
	for _, f := range flows {
		f.Sender.OnComplete = done
	}
	for _, f := range flows {
		f.Sender.Start()
	}
	sched.RunUntil(sim.Time(cfg.Timeout))

	res := ParallelResult{
		PerFlow:    make([]sim.Duration, cfg.Flows),
		LowerBound: sim.Duration(float64(cfg.TotalBytes*8)/float64(cfg.BottleneckRate)*float64(sim.Second)) + cfg.RTT,
		Finished:   true,
		Events:     sched.Fired(),
	}
	for i, f := range flows {
		if !f.Sender.Done() {
			res.Finished = false
			res.PerFlow[i] = cfg.Timeout
		} else {
			res.PerFlow[i] = sim.Duration(f.Sender.CompletedAt)
		}
		if res.PerFlow[i] > res.Completion {
			res.Completion = res.PerFlow[i]
		}
		res.CongestionEvents += f.Sender.CongestionEvents
		res.Timeouts += f.Sender.Timeouts
	}
	return res
}

// Sweep runs the transfer over several seeds is not needed — the
// simulation is deterministic per configuration; variance across "runs"
// in the paper comes from which flows lose during slow start. To expose
// that variance we perturb start times slightly: run k executions with
// staggered starts and report each normalized latency.
func Sweep(cfg ParallelConfig, k int) []float64 {
	vals, _ := SweepEvents(cfg, k)
	return vals
}

// SweepEvents is Sweep plus the total simulated-event count across the k
// runs, for throughput accounting.
func SweepEvents(cfg ParallelConfig, k int) ([]float64, uint64) {
	return SweepEventsIn(cfg, k, exp.NewArena())
}

// SweepEventsIn is SweepEvents running every perturbed repetition on the
// same arena (see RunParallelIn), so a Figure-8 grid cell reuses its
// worker's scratch — scheduler freelist, packet pool and cached dumbbell
// world — across all its runs.
func SweepEventsIn(cfg ParallelConfig, k int, a *exp.Arena) ([]float64, uint64) {
	out := make([]float64, 0, k)
	var events uint64
	for i := 0; i < k; i++ {
		c := cfg
		// Perturb: shift RTT by i·25 µs so queue phase differs run to run,
		// the same role the paper's random run-to-run state plays.
		c.RTT += sim.Duration(i) * 25 * sim.Microsecond
		r := RunParallelIn(c, a)
		out = append(out, r.Normalized())
		events += r.Events
	}
	return out, events
}
