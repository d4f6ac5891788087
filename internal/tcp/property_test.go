package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// lossyPipe drops data packets according to an arbitrary predicate and
// delivers everything else after a fixed delay.
type lossyPipe struct {
	sched *sim.Scheduler
	snd   *Sender
	rcv   *Receiver
	drop  func(seq int64, nthSend int) bool
	sends map[int64]int
}

func newLossyPipe(cfg Config, drop func(seq int64, nth int) bool) *lossyPipe {
	p := &lossyPipe{
		sched: sim.NewScheduler(),
		drop:  drop,
		sends: map[int64]int{},
	}
	cfg.Flow = 1
	cfg.Src = 100
	cfg.Dst = 200
	delay := 5 * sim.Millisecond
	fwd := netsim.HandlerFunc(func(pkt *netsim.Packet) {
		n := p.sends[pkt.Seq]
		p.sends[pkt.Seq] = n + 1
		if p.drop(pkt.Seq, n) {
			return
		}
		p.sched.After(delay, func() { p.rcv.Handle(pkt) })
	})
	rev := netsim.HandlerFunc(func(pkt *netsim.Packet) {
		p.sched.After(delay, func() { p.snd.Handle(pkt) })
	})
	p.snd = NewSender(p.sched, fwd, cfg)
	p.rcv = NewReceiver(p.sched, rev, 1, 200, 100)
	return p
}

// TestLivenessUnderArbitraryLoss: whatever packets are lost (as long as
// no sequence is lost infinitely often), a finite transfer completes and
// delivers exactly the expected range. This is the central liveness
// invariant of the transport: dup-ack recovery, NewReno partial-ack
// processing and RTO backoff must never deadlock.
func TestLivenessUnderArbitraryLoss(t *testing.T) {
	f := func(seed int64, dropPct uint8, total uint16) bool {
		pct := float64(dropPct%60) / 100 // up to 59% random loss
		n := int64(total%500) + 20
		rng := rand.New(rand.NewSource(seed))
		// Drop randomly, but never the 4th+ transmission of a sequence, so
		// progress is always eventually possible.
		p := newLossyPipe(Config{TotalPackets: n},
			func(seq int64, nth int) bool {
				return nth < 3 && rng.Float64() < pct
			})
		p.snd.Start()
		p.sched.RunUntil(sim.Time(30 * 60 * sim.Second))
		if !p.snd.Done() {
			t.Logf("deadlock: seed=%d pct=%v n=%d cumack=%d inflight=%d cwnd=%v timeouts=%d",
				seed, pct, n, p.snd.cumAck, p.snd.InFlight(), p.snd.cwnd, p.snd.Timeouts)
			return false
		}
		return p.rcv.CumAck() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestLivenessPacedUnderArbitraryLoss: the same invariant for the
// rate-based implementation.
func TestLivenessPacedUnderArbitraryLoss(t *testing.T) {
	f := func(seed int64, dropPct uint8, total uint16) bool {
		pct := float64(dropPct%50) / 100
		n := int64(total%300) + 20
		rng := rand.New(rand.NewSource(seed))
		p := newLossyPipe(Config{TotalPackets: n, Paced: true,
			InitialRTT: 10 * sim.Millisecond},
			func(seq int64, nth int) bool {
				return nth < 3 && rng.Float64() < pct
			})
		p.snd.Start()
		p.sched.RunUntil(sim.Time(30 * 60 * sim.Second))
		return p.snd.Done() && p.rcv.CumAck() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestNoRetransmitWithoutLoss: on a perfect path the sender must never
// retransmit, for any transfer size and either implementation style.
func TestNoRetransmitWithoutLoss(t *testing.T) {
	f := func(total uint16, paced bool) bool {
		n := int64(total%2000) + 1
		p := newLossyPipe(Config{TotalPackets: n, Paced: paced,
			InitialRTT: 10 * sim.Millisecond},
			func(int64, int) bool { return false })
		p.snd.Start()
		p.sched.RunUntil(sim.Time(30 * 60 * sim.Second))
		return p.snd.Done() && p.snd.Retransmits == 0 &&
			p.snd.Sent == uint64(n) && p.rcv.Duplicates == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestInFlightNeverExceedsWindowPlusRecovery: the sender must respect its
// window: in-flight packets never exceed the instantaneous window (which
// inflates during recovery) — checked at every transmission.
func TestInFlightNeverExceedsWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := newLossyPipe(Config{TotalPackets: 2000},
		func(seq int64, nth int) bool { return nth == 0 && rng.Float64() < 0.05 })
	orig := p.snd.Out()
	violated := false
	p.snd.SetOut(netsim.HandlerFunc(func(pkt *netsim.Packet) {
		if !pkt.Retrans && p.snd.InFlight() > p.snd.window() {
			violated = true
		}
		orig.Handle(pkt)
	}))
	p.snd.Start()
	p.sched.RunUntil(sim.Time(30 * 60 * sim.Second))
	if violated {
		t.Fatal("sender exceeded its congestion window")
	}
	if !p.snd.Done() {
		t.Fatal("transfer incomplete")
	}
}

// TestCumAckMonotone: the receiver's cumulative ack never regresses under
// heavy duplication and reordering pressure.
func TestCumAckMonotone(t *testing.T) {
	sched := sim.NewScheduler()
	var acks []int64
	out := netsim.HandlerFunc(func(p *netsim.Packet) { acks = append(acks, p.Ack) })
	r := NewReceiver(sched, out, 1, 200, 100)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		r.Handle(&netsim.Packet{Flow: 1, Kind: netsim.Data,
			Seq: int64(rng.Intn(200)), Size: 100})
	}
	prev := int64(0)
	for _, a := range acks {
		if a < prev {
			t.Fatal("cumulative ack regressed")
		}
		prev = a
	}
}
