package tcp

import (
	"testing"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/trace"
)

// newDumbbell builds cfg through the one dumbbell builder on a fresh
// arena's scheduler.
func newDumbbell(cfg netsim.DumbbellConfig) (*sim.Scheduler, *topo.Dumbbell) {
	a := exp.NewArena()
	s := a.Scheduler()
	return s, topo.NewDumbbell(a, s, cfg)
}

// buildDumbbell makes a small bottleneck shared by n flows with the given
// one-way access delays.
func buildDumbbell(n int, delay sim.Duration, rate int64, buffer int) (*sim.Scheduler, *topo.Dumbbell) {
	delays := make([]sim.Duration, n)
	for i := range delays {
		delays[i] = delay
	}
	return newDumbbell(netsim.DumbbellConfig{
		BottleneckRate:  rate,
		BottleneckDelay: sim.Millisecond,
		AccessRate:      10 * rate,
		AccessDelays:    delays,
		Buffer:          buffer,
	})
}

// newDumbbellFlow wires a TCP flow onto pair i of a dumbbell.
func newDumbbellFlow(d *topo.Dumbbell, i int, flowID int, cfg Config) *Flow {
	return NewPairFlow(d.Sched, d.SenderNode(i), d.ReceiverNode(i), flowID, cfg)
}

func TestSingleFlowSaturatesBottleneck(t *testing.T) {
	s, d := buildDumbbell(1, 10*sim.Millisecond, 10_000_000, 50)
	f := newDumbbellFlow(d, 0, 1, Config{PktSize: 1000})
	f.Sender.Start()
	s.RunUntil(sim.Time(20 * sim.Second))
	// 10 Mbps for 20 s = 25,000 packets max. Expect >70% utilization
	// (sawtooth average is 75% of capacity for a lone NewReno flow).
	got := f.Receiver.CumAck()
	if got < 17000 {
		t.Fatalf("delivered %d packets in 20s over 10 Mbps; underutilized", got)
	}
	if got > 25100 {
		t.Fatalf("delivered %d packets; exceeds link capacity", got)
	}
	if f.Sender.CongestionEvents == 0 {
		t.Fatal("a saturating flow must hit the buffer and see losses")
	}
}

func TestFiniteTransferOverDumbbell(t *testing.T) {
	s, d := buildDumbbell(1, 5*sim.Millisecond, 10_000_000, 30)
	f := newDumbbellFlow(d, 0, 1, Config{PktSize: 1000, TotalPackets: 2000})
	var doneAt sim.Time
	f.Sender.OnComplete = func(at sim.Time) { doneAt = at }
	f.Sender.Start()
	s.RunUntil(sim.Time(60 * sim.Second))
	if !f.Sender.Done() {
		t.Fatal("finite transfer did not finish")
	}
	// 2000 packets · 8000 bits = 16 Mbit ⇒ ≥1.6 s at 10 Mbps.
	if doneAt < sim.Time(1600*sim.Millisecond) {
		t.Fatalf("completed impossibly fast: %v", doneAt)
	}
	if doneAt > sim.Time(30*sim.Second) {
		t.Fatalf("completed too slowly: %v", doneAt)
	}
}

func TestTwoFlowsShareBottleneckFairly(t *testing.T) {
	s, d := buildDumbbell(2, 10*sim.Millisecond, 10_000_000, 60)
	f0 := newDumbbellFlow(d, 0, 1, Config{PktSize: 1000})
	f1 := newDumbbellFlow(d, 1, 2, Config{PktSize: 1000})
	f0.Sender.Start()
	f1.Sender.Start()
	s.RunUntil(sim.Time(60 * sim.Second))
	g0 := float64(f0.Receiver.CumAck())
	g1 := float64(f1.Receiver.CumAck())
	ratio := g0 / g1
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("same-RTT flows wildly unfair: %v vs %v packets", g0, g1)
	}
	total := g0 + g1
	// Two flows should keep the link busier than one: >75% utilization.
	if total < 0.70*75000 {
		t.Fatalf("aggregate %v packets in 60s; link underutilized", total)
	}
}

func TestDropTraceRecordsBottleneckLosses(t *testing.T) {
	s, d := buildDumbbell(2, 10*sim.Millisecond, 5_000_000, 20)
	rec := &trace.Recorder{}
	d.Forward.OnDrop = func(p *netsim.Packet, at sim.Time) {
		rec.Add(trace.LossEvent{At: at, Flow: p.Flow, Seq: p.Seq, Size: p.Size})
	}
	f0 := newDumbbellFlow(d, 0, 1, Config{PktSize: 1000})
	f1 := newDumbbellFlow(d, 1, 2, Config{PktSize: 1000})
	f0.Sender.Start()
	f1.Sender.Start()
	s.RunUntil(sim.Time(30 * sim.Second))
	if rec.Len() == 0 {
		t.Fatal("no drops recorded at a congested bottleneck")
	}
	if !rec.Sorted() {
		t.Fatal("drop trace out of order")
	}
	if int(d.Forward.Dropped) != rec.Len() {
		t.Fatalf("port counted %d drops, trace has %d", d.Forward.Dropped, rec.Len())
	}
}

func TestShorterRTTGetsMoreThroughput(t *testing.T) {
	// Classic TCP RTT bias: the 10 ms flow should outrun the 80 ms flow.
	s, d := newDumbbell(netsim.DumbbellConfig{
		BottleneckRate:  10_000_000,
		BottleneckDelay: sim.Millisecond,
		AccessRate:      100_000_000,
		AccessDelays:    []sim.Duration{10 * sim.Millisecond, 80 * sim.Millisecond},
		Buffer:          60,
	})
	fast := newDumbbellFlow(d, 0, 1, Config{PktSize: 1000})
	slow := newDumbbellFlow(d, 1, 2, Config{PktSize: 1000})
	fast.Sender.Start()
	slow.Sender.Start()
	s.RunUntil(sim.Time(60 * sim.Second))
	if fast.Receiver.CumAck() <= slow.Receiver.CumAck() {
		t.Fatalf("RTT bias inverted: fast=%d slow=%d",
			fast.Receiver.CumAck(), slow.Receiver.CumAck())
	}
}

func TestPacedVsWindowCompetition(t *testing.T) {
	// The paper's Figure 7 effect at small scale: equal numbers of paced
	// and unpaced flows share a DropTail bottleneck; the paced aggregate
	// should come out behind.
	const n = 4
	s, d := buildDumbbell(2*n, 25*sim.Millisecond, 50_000_000, 150)
	var paced, window []*Flow
	for i := 0; i < n; i++ {
		window = append(window, newDumbbellFlow(d, i, i+1, Config{PktSize: 1000}))
	}
	for i := n; i < 2*n; i++ {
		paced = append(paced, newDumbbellFlow(d, i, i+1, Config{PktSize: 1000,
			Paced: true, InitialRTT: 52 * sim.Millisecond}))
	}
	for _, f := range window {
		f.Sender.Start()
	}
	for _, f := range paced {
		f.Sender.Start()
	}
	s.RunUntil(sim.Time(40 * sim.Second))
	var gw, gp int64
	for _, f := range window {
		gw += f.Receiver.CumAck()
	}
	for _, f := range paced {
		gp += f.Receiver.CumAck()
	}
	if gp >= gw {
		t.Fatalf("paced flows won the competition: paced=%d window=%d", gp, gw)
	}
	t.Logf("window=%d paced=%d deficit=%.1f%%", gw, gp, 100*float64(gw-gp)/float64(gw))
}

func TestECNFlowsOverREDBottleneck(t *testing.T) {
	// ECN-enabled flows over an ECN-marking RED bottleneck should make
	// progress with almost no retransmissions.
	rng := sim.NewRand(1)
	red := netsim.NewRED(netsim.REDConfig{
		Limit: 100, MinTh: 10, MaxTh: 30, MaxP: 0.1, ECN: true,
		PacketsPerSecond: 10_000_000 / 8000,
	}, rng)
	s, d := newDumbbell(netsim.DumbbellConfig{
		BottleneckRate:  10_000_000,
		BottleneckDelay: sim.Millisecond,
		AccessRate:      100_000_000,
		AccessDelays:    []sim.Duration{10 * sim.Millisecond, 10 * sim.Millisecond},
		Buffer:          100,
		Queue:           red,
	})
	f0 := newDumbbellFlow(d, 0, 1, Config{PktSize: 1000, ECN: true})
	f1 := newDumbbellFlow(d, 1, 2, Config{PktSize: 1000, ECN: true})
	f0.Sender.Start()
	f1.Sender.Start()
	s.RunUntil(sim.Time(30 * sim.Second))
	if red.Marked == 0 {
		t.Fatal("RED never marked")
	}
	total := f0.Receiver.CumAck() + f1.Receiver.CumAck()
	if total < 20000 {
		t.Fatalf("ECN flows underutilized: %d packets", total)
	}
	retr := f0.Sender.Retransmits + f1.Sender.Retransmits
	sent := f0.Sender.Sent + f1.Sender.Sent
	if float64(retr)/float64(sent) > 0.01 {
		t.Fatalf("ECN flows retransmitted too much: %d/%d", retr, sent)
	}
}

func TestGoodputBits(t *testing.T) {
	s, d := buildDumbbell(1, 5*sim.Millisecond, 10_000_000, 30)
	f := newDumbbellFlow(d, 0, 1, Config{PktSize: 1000, TotalPackets: 100})
	f.StartAt(s, sim.Time(100*sim.Millisecond))
	s.RunUntil(sim.Time(10 * sim.Second))
	if !f.Sender.Done() {
		t.Fatal("not done")
	}
	if f.GoodputBits(1000) != 100*1000*8 {
		t.Fatalf("goodput = %d", f.GoodputBits(1000))
	}
	// StartAt in the past starts immediately and must not panic.
	f2 := newDumbbellFlow(d, 0, 2, Config{PktSize: 1000, TotalPackets: 1})
	f2.StartAt(s, 0)
	s.RunUntil(sim.Time(20 * sim.Second))
	if !f2.Sender.Done() {
		t.Fatal("past-start flow not done")
	}
}
