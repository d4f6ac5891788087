package apps

import (
	"testing"

	"repro/internal/sim"
)

func smallCfg() ParallelConfig {
	return ParallelConfig{
		TotalBytes:     4 << 20, // 4 MB keeps tests fast
		Flows:          4,
		RTT:            20 * sim.Millisecond,
		BottleneckRate: 50_000_000,
	}
}

func TestParallelTransferCompletes(t *testing.T) {
	r := RunParallel(smallCfg(), nil)
	if !r.Finished {
		t.Fatal("transfer did not finish")
	}
	if r.Completion < r.LowerBound {
		t.Fatalf("completed faster than the lower bound: %v < %v",
			r.Completion, r.LowerBound)
	}
	if r.Normalized() < 1 || r.Normalized() > 20 {
		t.Fatalf("normalized latency = %v", r.Normalized())
	}
	if len(r.PerFlow) != 4 {
		t.Fatalf("per-flow entries = %d", len(r.PerFlow))
	}
	for i, d := range r.PerFlow {
		if d <= 0 || d > r.Completion {
			t.Fatalf("flow %d completion %v out of range", i, d)
		}
	}
}

func TestParallelLowerBound(t *testing.T) {
	cfg := ParallelConfig{
		TotalBytes:     64 << 20,
		Flows:          4,
		RTT:            50 * sim.Millisecond,
		BottleneckRate: 100_000_000,
	}
	cfg.fillDefaults()
	r := ParallelResult{LowerBound: sim.Duration(float64(cfg.TotalBytes*8) /
		float64(cfg.BottleneckRate) * float64(sim.Second))}
	// 64 MB at 100 Mbps = 5.368 s — the paper quotes 5.39 s.
	sec := r.LowerBound.Seconds()
	if sec < 5.3 || sec > 5.5 {
		t.Fatalf("lower bound = %v s", sec)
	}
}

func TestParallelQuotaSplitExact(t *testing.T) {
	// 1000 packets over 3 flows: quotas 334/333/333 must sum exactly.
	cfg := smallCfg()
	cfg.TotalBytes = 1000 * 1000
	cfg.Flows = 3
	r := RunParallel(cfg, nil)
	if !r.Finished {
		t.Fatal("unfinished")
	}
}

func TestParallelSingleFlow(t *testing.T) {
	cfg := smallCfg()
	cfg.Flows = 1
	r := RunParallel(cfg, nil)
	if !r.Finished {
		t.Fatal("single-flow transfer unfinished")
	}
}

func TestParallelLatencyGrowsWithRTT(t *testing.T) {
	small := smallCfg()
	small.RTT = 10 * sim.Millisecond
	big := smallCfg()
	big.RTT = 200 * sim.Millisecond
	rs := RunParallel(small, nil)
	rb := RunParallel(big, nil)
	if !rs.Finished || !rb.Finished {
		t.Fatal("unfinished")
	}
	if rb.Normalized() <= rs.Normalized() {
		t.Fatalf("normalized latency should grow with RTT: %v (10ms) vs %v (200ms)",
			rs.Normalized(), rb.Normalized())
	}
}

func TestParallelTimeoutReported(t *testing.T) {
	cfg := smallCfg()
	cfg.Timeout = 10 * sim.Millisecond // impossible
	r := RunParallel(cfg, nil)
	if r.Finished {
		t.Fatal("impossible deadline reported finished")
	}
	if r.Completion != cfg.Timeout {
		t.Fatalf("completion = %v, want clamped to timeout", r.Completion)
	}
}

func TestSweepVariance(t *testing.T) {
	vals, _ := Sweep(smallCfg(), 5, nil)
	if len(vals) != 5 {
		t.Fatalf("sweep size = %d", len(vals))
	}
	for _, v := range vals {
		if v < 1 || v > 50 {
			t.Fatalf("sweep value %v out of range", v)
		}
	}
}

func TestParallelDefaults(t *testing.T) {
	var c ParallelConfig
	c.RTT = 50 * sim.Millisecond
	c.fillDefaults()
	if c.TotalBytes != 64<<20 || c.Flows != 4 || c.BottleneckRate != 100_000_000 {
		t.Fatalf("defaults = %+v", c)
	}
}

func TestParallelPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RunParallel(ParallelConfig{Flows: -1, TotalBytes: 1, RTT: sim.Millisecond}, nil)
}
