package tcp

import (
	"testing"

	"repro/internal/sim"
)

func TestVegasVariantString(t *testing.T) {
	if Vegas.String() != "vegas" {
		t.Fatal("vegas string")
	}
}

func TestVegasKeepsQueueShortAndAvoidsLoss(t *testing.T) {
	// After its start-up transient, a Vegas flow converges to a small
	// steady backlog (alpha..beta packets) and stops losing packets
	// entirely, unlike NewReno whose sawtooth overflows the buffer
	// forever. Compare steady-state drops (t > 5 s).
	runOne := func(v Variant) (steadyDrops uint64, delivered int64) {
		s, d := buildDumbbell(1, 20*sim.Millisecond, 10_000_000, 60)
		f := newDumbbellFlow(d, 0, 1, Config{PktSize: 1000, Variant: v,
			InitialRTT: 42 * sim.Millisecond})
		f.Sender.Start()
		s.RunUntil(sim.Time(5 * sim.Second))
		transient := d.Forward.Dropped
		s.RunUntil(sim.Time(30 * sim.Second))
		return d.Forward.Dropped - transient, f.Receiver.CumAck()
	}
	vDrops, vGot := runOne(Vegas)
	nDrops, nGot := runOne(NewReno)
	if nDrops == 0 {
		t.Fatal("NewReno baseline never dropped in steady state; scenario too easy")
	}
	if vDrops > nDrops/10 {
		t.Fatalf("Vegas steady-state drops %d vs NewReno %d; delay-based control not avoiding loss",
			vDrops, nDrops)
	}
	// Vegas must still achieve solid utilization (paper's [23]: better
	// stability without throughput collapse). 10 Mbps · 30 s = 37,500 pkts.
	if vGot < 25000 {
		t.Fatalf("Vegas underutilized: %d packets (NewReno: %d)", vGot, nGot)
	}
}

func TestVegasFairnessBetterThanNewReno(t *testing.T) {
	// Four same-RTT flows: delay-based control should share at least as
	// evenly as loss-based (Jain's index).
	jain := func(v Variant) float64 {
		s, d := buildDumbbell(4, 20*sim.Millisecond, 20_000_000, 80)
		flows := make([]*Flow, 4)
		for i := range flows {
			flows[i] = newDumbbellFlow(d, i, i+1, Config{PktSize: 1000, Variant: v,
				InitialRTT: 42 * sim.Millisecond})
			off := sim.Duration(i) * 500 * sim.Millisecond
			flows[i].StartAt(s, sim.Time(off))
		}
		s.RunUntil(sim.Time(60 * sim.Second))
		var sum, sumSq float64
		for _, f := range flows {
			g := float64(f.Receiver.CumAck())
			sum += g
			sumSq += g * g
		}
		return sum * sum / (4 * sumSq)
	}
	jv := jain(Vegas)
	jn := jain(NewReno)
	if jv < jn-0.05 {
		t.Fatalf("Vegas fairness %.3f clearly below NewReno %.3f", jv, jn)
	}
	if jv < 0.8 {
		t.Fatalf("Vegas fairness too low: %.3f", jv)
	}
}

func TestVegasStillRecoversFromInducedLoss(t *testing.T) {
	// Vegas competing with a blast of cross traffic must survive losses
	// via the shared recovery machinery.
	p := newPipe(t, Config{TotalPackets: 300, Variant: Vegas, InitialCwnd: 10})
	p.drop[5] = true
	p.drop[6] = true
	p.snd.Start()
	p.sched.Run()
	if !p.snd.Done() {
		t.Fatal("Vegas transfer did not complete after losses")
	}
}
