package tcp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// pipe is a controllable fake network: it delivers data packets to a
// receiver after a fixed one-way delay, except those whose seq is in the
// drop set; ACKs come back after the same delay.
type pipe struct {
	sched  *sim.Scheduler
	delay  sim.Duration
	drop   map[int64]bool // data seqs to drop exactly once
	snd    *Sender
	rcv    *Receiver
	losses int
}

func newPipe(t *testing.T, cfg Config) *pipe {
	t.Helper()
	p := &pipe{
		sched: sim.NewScheduler(),
		delay: 10 * sim.Millisecond,
		drop:  map[int64]bool{},
	}
	cfg.Flow = 1
	cfg.Src = 100
	cfg.Dst = 200
	// Sender injects into the forward path; receiver into the reverse.
	fwd := netsim.HandlerFunc(func(pkt *netsim.Packet) {
		if p.drop[pkt.Seq] && !pkt.Retrans {
			delete(p.drop, pkt.Seq)
			p.losses++
			return
		}
		p.sched.After(p.delay, func() { p.rcv.Handle(pkt) })
	})
	rev := netsim.HandlerFunc(func(pkt *netsim.Packet) {
		p.sched.After(p.delay, func() { p.snd.Handle(pkt) })
	})
	p.snd = NewSender(p.sched, fwd, cfg)
	p.rcv = NewReceiver(p.sched, rev, 1, 200, 100)
	return p
}

func TestLosslessTransferCompletes(t *testing.T) {
	p := newPipe(t, Config{TotalPackets: 100})
	done := false
	p.snd.OnComplete = func(at sim.Time) { done = true }
	p.snd.Start()
	p.sched.Run()
	if !done || !p.snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if p.snd.cumAck != 100 {
		t.Fatalf("cumack = %d", p.snd.cumAck)
	}
	if p.snd.Retransmits != 0 {
		t.Fatalf("spurious retransmits: %d", p.snd.Retransmits)
	}
	if p.rcv.CumAck() != 100 {
		t.Fatalf("receiver cumack = %d", p.rcv.CumAck())
	}
}

func TestSlowStartDoubling(t *testing.T) {
	p := newPipe(t, Config{TotalPackets: 1000})
	p.snd.Start()
	// After the first RTT (20 ms + tx), the two initial packets are acked:
	// cwnd should be 4. After two RTTs, 8.
	p.sched.RunUntil(sim.Time(25 * sim.Millisecond))
	if got := p.snd.cwnd; got != 4 {
		t.Fatalf("cwnd after 1 RTT = %v, want 4", got)
	}
	p.sched.RunUntil(sim.Time(45 * sim.Millisecond))
	if got := p.snd.cwnd; got != 8 {
		t.Fatalf("cwnd after 2 RTT = %v, want 8", got)
	}
}

func TestWindowBasedSendsBursts(t *testing.T) {
	// The window-based sender must emit its usable window back to back:
	// all initial packets at the same instant.
	p := newPipe(t, Config{TotalPackets: 1000, InitialCwnd: 8})
	var sendTimes []sim.Time
	orig := p.snd.out
	p.snd.out = netsim.HandlerFunc(func(pkt *netsim.Packet) {
		sendTimes = append(sendTimes, p.sched.Now())
		orig.Handle(pkt)
	})
	p.snd.Start()
	p.sched.RunUntil(sim.Time(sim.Millisecond))
	if len(sendTimes) != 8 {
		t.Fatalf("sent %d packets initially, want 8", len(sendTimes))
	}
	for _, ts := range sendTimes {
		if ts != 0 {
			t.Fatalf("burst not back-to-back: %v", sendTimes)
		}
	}
}

func TestPacedSenderSpreadsPackets(t *testing.T) {
	p := newPipe(t, Config{TotalPackets: 1000, InitialCwnd: 8, Paced: true,
		InitialRTT: 80 * sim.Millisecond})
	var sendTimes []sim.Time
	orig := p.snd.out
	p.snd.out = netsim.HandlerFunc(func(pkt *netsim.Packet) {
		sendTimes = append(sendTimes, p.sched.Now())
		orig.Handle(pkt)
	})
	p.snd.Start()
	// Before the first ACK returns (~25 ms) the pace interval is
	// InitialRTT/(2·cwnd) = 5 ms (slow start paces the doubled window);
	// ticks land at 5, 10, 15 and 20 ms.
	p.sched.RunUntil(sim.Time(24 * sim.Millisecond))
	if len(sendTimes) != 4 {
		t.Fatalf("sent %d packets in 24ms, want 4", len(sendTimes))
	}
	for i := 1; i < 4; i++ {
		if gap := sendTimes[i].Sub(sendTimes[i-1]); gap != 5*sim.Millisecond {
			t.Fatalf("pace gap = %v, want 5ms", gap)
		}
	}
	// After ACKs arrive the real RTT (20 ms) takes over; packets must stay
	// strictly spread (never back to back) for the life of the connection.
	p.sched.RunUntil(sim.Time(200 * sim.Millisecond))
	for i := 1; i < len(sendTimes); i++ {
		if sendTimes[i] == sendTimes[i-1] {
			t.Fatalf("paced packets %d,%d share instant %v", i-1, i, sendTimes[i])
		}
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	p := newPipe(t, Config{TotalPackets: 200, InitialCwnd: 10})
	p.drop[5] = true
	p.snd.Start()
	p.sched.Run()
	if !p.snd.Done() {
		t.Fatal("transfer did not complete")
	}
	if p.snd.Timeouts != 0 {
		t.Fatalf("needed %d timeouts; fast retransmit should have recovered", p.snd.Timeouts)
	}
	if p.snd.CongestionEvents != 1 {
		t.Fatalf("congestion events = %d, want 1", p.snd.CongestionEvents)
	}
	if p.snd.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", p.snd.Retransmits)
	}
}

func TestNewRenoRecoversMultipleLossesWithoutTimeout(t *testing.T) {
	p := newPipe(t, Config{TotalPackets: 300, InitialCwnd: 20})
	// Multiple drops in one window: NewReno retransmits one hole per
	// partial ACK and should avoid RTO.
	p.drop[5] = true
	p.drop[7] = true
	p.drop[9] = true
	p.snd.Start()
	p.sched.Run()
	if !p.snd.Done() {
		t.Fatal("did not complete")
	}
	if p.snd.Timeouts != 0 {
		t.Fatalf("NewReno took %d timeouts on a 3-loss window", p.snd.Timeouts)
	}
	// One congestion event per loss *event*, not per lost packet.
	if p.snd.CongestionEvents != 1 {
		t.Fatalf("congestion events = %d, want 1", p.snd.CongestionEvents)
	}
	if p.snd.Retransmits != 3 {
		t.Fatalf("retransmits = %d, want 3", p.snd.Retransmits)
	}
}

func TestLimitedTransmitRescuesSmallWindow(t *testing.T) {
	// A 2-packet window would produce only one duplicate ACK — without
	// Limited Transmit (RFC 3042) the flow must RTO. With it, each of the
	// first two dup ACKs releases a new segment, the third dup ACK
	// arrives, and fast retransmit recovers without a timeout.
	p := newPipe(t, Config{TotalPackets: 50, InitialCwnd: 2})
	p.drop[1] = true
	p.snd.Start()
	p.sched.Run()
	if !p.snd.Done() {
		t.Fatal("did not complete")
	}
	if p.snd.Timeouts != 0 {
		t.Fatalf("limited transmit failed: %d timeouts", p.snd.Timeouts)
	}
	if p.snd.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", p.snd.Retransmits)
	}
}

func TestTimeoutWhenOnlyPacketLost(t *testing.T) {
	// With a 1-packet window there are no dup ACKs at all: the RTO is the
	// only recovery path.
	p := newPipe(t, Config{TotalPackets: 5, InitialCwnd: 1, MaxCwnd: 1})
	p.drop[0] = true
	p.snd.Start()
	p.sched.Run()
	if !p.snd.Done() {
		t.Fatal("did not complete")
	}
	if p.snd.Timeouts == 0 {
		t.Fatal("expected an RTO with a 1-packet window")
	}
}

func TestCongestionAvoidanceLinearGrowth(t *testing.T) {
	p := newPipe(t, Config{TotalPackets: 100000, InitialCwnd: 10, InitialSSThresh: 10})
	p.snd.Start()
	// In CA, cwnd grows ~1 packet per RTT (20 ms). Run 10 RTTs.
	p.sched.RunUntil(sim.Time(200 * sim.Millisecond))
	got := p.snd.cwnd
	if got < 17 || got > 22 {
		t.Fatalf("cwnd after ~10 CA RTTs = %v, want ≈20", got)
	}
}

func TestRTTEstimator(t *testing.T) {
	var e rttEstimator
	if e.RTO() != sim.Second {
		t.Fatalf("initial RTO = %v", e.RTO())
	}
	if e.valid {
		t.Fatal("no sample yet")
	}
	e.Sample(100 * sim.Millisecond)
	if e.SRTT(0) != 100*sim.Millisecond {
		t.Fatalf("first srtt = %v", e.SRTT(0))
	}
	// RTO = srtt + 4·rttvar = 100 + 4·50 = 300 ms.
	if e.RTO() != 300*sim.Millisecond {
		t.Fatalf("rto = %v", e.RTO())
	}
	e.Sample(100 * sim.Millisecond)
	if e.SRTT(0) != 100*sim.Millisecond {
		t.Fatalf("stable srtt = %v", e.SRTT(0))
	}
	// Variance decays toward zero; RTO floors at MinRTO eventually.
	for i := 0; i < 50; i++ {
		e.Sample(100 * sim.Millisecond)
	}
	if e.RTO() != minRTO {
		t.Fatalf("rto floor = %v", e.RTO())
	}
	e.Sample(0) // ignored
	if e.SRTT(0) != 100*sim.Millisecond {
		t.Fatal("zero sample not ignored")
	}
}

func TestRTTEstimatorFallback(t *testing.T) {
	var e rttEstimator
	if e.SRTT(42*sim.Millisecond) != 42*sim.Millisecond {
		t.Fatal("fallback not used")
	}
}

func TestReceiverOutOfOrderCumAck(t *testing.T) {
	sched := sim.NewScheduler()
	var acks []int64
	out := netsim.HandlerFunc(func(p *netsim.Packet) { acks = append(acks, p.Ack) })
	r := NewReceiver(sched, out, 1, 200, 100)
	mk := func(seq int64) *netsim.Packet {
		return &netsim.Packet{Flow: 1, Kind: netsim.Data, Seq: seq, Size: 1000}
	}
	r.Handle(mk(0)) // ack 1
	r.Handle(mk(2)) // hole: ack 1 (dup)
	r.Handle(mk(3)) // ack 1 (dup)
	r.Handle(mk(1)) // fills: ack 4
	want := []int64{1, 1, 1, 4}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("acks = %v, want %v", acks, want)
		}
	}
	if r.Duplicates != 0 {
		t.Fatalf("duplicates = %d", r.Duplicates)
	}
	r.Handle(mk(0)) // old duplicate
	if r.Duplicates != 1 {
		t.Fatalf("old packet not counted duplicate")
	}
	r.Handle(mk(10))
	r.Handle(mk(10)) // repeated out-of-order duplicate
	if r.Duplicates != 2 {
		t.Fatalf("ooo duplicate not counted: %d", r.Duplicates)
	}
}

func TestReceiverIgnoresWrongFlowAndKind(t *testing.T) {
	sched := sim.NewScheduler()
	n := 0
	out := netsim.HandlerFunc(func(p *netsim.Packet) { n++ })
	r := NewReceiver(sched, out, 1, 200, 100)
	r.Handle(&netsim.Packet{Flow: 2, Kind: netsim.Data})
	r.Handle(&netsim.Packet{Flow: 1, Kind: netsim.Ack})
	if n != 0 || r.Received != 0 {
		t.Fatal("receiver handled foreign packets")
	}
}

func TestSenderIgnoresForeignPackets(t *testing.T) {
	p := newPipe(t, Config{TotalPackets: 10})
	p.snd.Start()
	before := p.snd.AcksIn
	p.snd.Handle(&netsim.Packet{Flow: 99, Kind: netsim.Ack, Ack: 5})
	p.snd.Handle(&netsim.Packet{Flow: 1, Kind: netsim.Data, Seq: 5})
	if p.snd.AcksIn != before || p.snd.cumAck != 0 {
		t.Fatal("sender handled foreign packets")
	}
}

func TestECNReactionHalvesWindow(t *testing.T) {
	p := newPipe(t, Config{TotalPackets: 10000, InitialCwnd: 16, ECN: true})
	// Mark every data packet CE at the "router".
	orig := p.snd.out
	p.snd.out = netsim.HandlerFunc(func(pkt *netsim.Packet) {
		pkt.CE = true
		orig.Handle(pkt)
	})
	p.snd.Start()
	p.sched.RunUntil(sim.Time(25 * sim.Millisecond)) // one RTT
	if p.snd.CongestionEvents == 0 {
		t.Fatal("no ECN reaction")
	}
	if p.snd.cwnd > 16 {
		t.Fatalf("cwnd = %v, should have been halved from 16", p.snd.cwnd)
	}
	if p.snd.Retransmits != 0 {
		t.Fatal("ECN must not cause retransmits")
	}
	// Rate limiting: within 3 RTTs at most ~3 reductions.
	p.sched.RunUntil(sim.Time(70 * sim.Millisecond))
	if p.snd.CongestionEvents > 4 {
		t.Fatalf("ECN reductions not rate-limited: %d", p.snd.CongestionEvents)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.PktSize != 1000 || c.InitialCwnd != 2 || c.PaceQuantum != 1 {
		t.Fatalf("defaults: %+v", c)
	}
}

func TestNewSenderValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewSender(nil, nil, Config{})
}

func TestPaceQuantumBursts(t *testing.T) {
	p := newPipe(t, Config{TotalPackets: 1000, InitialCwnd: 8, Paced: true,
		PaceQuantum: 4, InitialRTT: 80 * sim.Millisecond})
	var sendTimes []sim.Time
	orig := p.snd.out
	p.snd.out = netsim.HandlerFunc(func(pkt *netsim.Packet) {
		sendTimes = append(sendTimes, p.sched.Now())
		orig.Handle(pkt)
	})
	p.snd.Start()
	p.sched.RunUntil(sim.Time(79 * sim.Millisecond))
	// With quantum 4 the first tick at 40 ms releases 4 back to back.
	if len(sendTimes) < 4 {
		t.Fatalf("sent %d", len(sendTimes))
	}
	if sendTimes[0] != sendTimes[3] {
		t.Fatalf("quantum burst not back-to-back: %v", sendTimes[:4])
	}
}
