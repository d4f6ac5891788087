// Package apps models the distributed-application workloads of the
// paper's Section 4.2: a GridFTP/GFS-style parallel transfer that splits a
// fixed volume evenly over N TCP flows and completes when the slowest flow
// finishes. The paper's Figure 8 plots the completion latency, normalized
// by the theoretic lower bound, against flow count and RTT.
package apps

import (
	"fmt"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
)

// pktSize is the TCP segment size in bytes of every apps workload.
const pktSize = 1000

// ParallelConfig describes one parallel-transfer experiment. Its
// bottleneck buffer is half the bandwidth-delay product, at least 10
// packets.
type ParallelConfig struct {
	// TotalBytes is the data volume split across flows (64 MB in the
	// paper).
	TotalBytes int64
	// Flows is the number of parallel TCP connections.
	Flows int
	// Paced selects the rate-based implementation for all flows.
	Paced bool
	// RTT is each flow's two-way propagation delay (all flows share it,
	// as in the paper's Figure 8 setup).
	RTT sim.Duration
	// BottleneckRate is the shared capacity in bits/second.
	BottleneckRate int64
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
	if c.BottleneckRate == 0 {
		c.BottleneckRate = 100_000_000
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

// RunParallel executes one parallel transfer on the arena's dumbbell (nil:
// a fresh arena, see topo.NewWorld). A warm arena rewinds its cached world
// — scheduler, packet pool and dumbbell — bit-identically to a fresh one;
// the flows are built anew every run.
func RunParallel(cfg ParallelConfig, a *exp.Arena) ParallelResult {
	cfg.fillDefaults()
	if cfg.Flows <= 0 || cfg.TotalBytes <= 0 {
		panic(fmt.Sprintf("apps: bad parallel config %+v", cfg))
	}

	w := topo.NewWorld(a, 0)
	sched := w.Sched
	delays := make([]sim.Duration, cfg.Flows)
	for i := range delays {
		// The dumbbell builder gives RTT = 2·access + 2·bottleneck delay;
		// fold everything into access delay with a negligible bottleneck
		// delay.
		delays[i] = cfg.RTT / 2
	}
	d := w.Dumbbell(netsim.DumbbellConfig{
		BottleneckRate:  cfg.BottleneckRate,
		BottleneckDelay: 0,
		AccessRate:      10 * cfg.BottleneckRate,
		AccessDelays:    delays,
		Buffer:          max(netsim.BDP(cfg.BottleneckRate, cfg.RTT, pktSize)/2, 10),
	})

	totalPkts := (cfg.TotalBytes + pktSize - 1) / pktSize
	perFlow := totalPkts / int64(cfg.Flows)
	rem := totalPkts % int64(cfg.Flows)
	flows := make([]*tcp.Flow, cfg.Flows)
	for i := range flows {
		quota := perFlow
		if int64(i) < rem {
			quota++
		}
		flows[i] = tcp.NewPairFlow(sched, d.SenderNode(i), d.ReceiverNode(i), i+1, tcp.Config{
			PktSize:      pktSize,
			TotalPackets: quota,
			Paced:        cfg.Paced,
			InitialRTT:   cfg.RTT,
			Pool:         w.Pool,
		})
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

// Sweep runs the transfer k times on one arena (nil: a fresh one) and
// reports each run's normalized latency plus the total simulated-event
// count. The simulation is deterministic per configuration; the paper's
// run-to-run variance comes from which flows lose during slow start, so
// run i shifts the RTT by i·25 µs to change the queue phase.
func Sweep(cfg ParallelConfig, k int, a *exp.Arena) ([]float64, uint64) {
	if a == nil {
		a = exp.NewArena()
	}
	out := make([]float64, 0, k)
	var events uint64
	for i := 0; i < k; i++ {
		c := cfg
		c.RTT += sim.Duration(i) * 25 * sim.Microsecond
		r := RunParallel(c, a)
		out = append(out, r.Normalized())
		events += r.Events
	}
	return out, events
}
