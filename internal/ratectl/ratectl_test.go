package ratectl

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestThroughputEquation(t *testing.T) {
	// Known shape: higher loss ⇒ lower rate; scales ~1/sqrt(p) for small p.
	s, r := 1000.0, 0.1
	x1 := ThroughputEquation(s, r, 0.01)
	x2 := ThroughputEquation(s, r, 0.04)
	if x2 >= x1 {
		t.Fatalf("rate not decreasing in p: %v vs %v", x1, x2)
	}
	// For small p the sqrt term dominates: quadrupling p halves the rate.
	ratio := ThroughputEquation(s, r, 1e-4) / ThroughputEquation(s, r, 4e-4)
	if ratio < 1.9 || ratio > 2.1 {
		t.Fatalf("sqrt scaling off: ratio = %v", ratio)
	}
	if !math.IsInf(ThroughputEquation(s, r, 0), 1) {
		t.Fatal("zero loss should give infinite rate")
	}
	// p > 1 is clamped.
	if ThroughputEquation(s, r, 2) != ThroughputEquation(s, r, 1) {
		t.Fatal("p clamp missing")
	}
	// Longer RTT ⇒ lower rate.
	if ThroughputEquation(s, 0.2, 0.01) >= ThroughputEquation(s, 0.1, 0.01) {
		t.Fatal("rate not decreasing in RTT")
	}
}

// tfrcPair wires a sender and receiver through a lossy fixed-delay pipe.
type tfrcPair struct {
	sched *sim.Scheduler
	snd   *TFRCSender
	rcv   *TFRCReceiver
	// dropEvery drops data packets whose seq ≡ 0 (mod dropEvery), if > 0.
	dropEvery int64
}

func newTFRCPair(dropEvery int64) *tfrcPair {
	p := &tfrcPair{sched: sim.NewScheduler(), dropEvery: dropEvery}
	cfg := TFRCConfig{Flow: 1, Src: 100, Dst: 200, PktSize: 1000,
		InitialRTT: 50 * sim.Millisecond}
	delay := 25 * sim.Millisecond
	fwd := netsim.HandlerFunc(func(pkt *netsim.Packet) {
		if p.dropEvery > 0 && pkt.Seq > 0 && pkt.Seq%p.dropEvery == 0 {
			return
		}
		p.sched.After(delay, func() { p.rcv.Handle(pkt) })
	})
	rev := netsim.HandlerFunc(func(pkt *netsim.Packet) {
		p.sched.After(delay, func() { p.snd.Handle(pkt) })
	})
	p.snd = NewTFRCSender(p.sched, fwd, cfg)
	p.rcv = NewTFRCReceiver(p.sched, rev, cfg)
	return p
}

func TestTFRCSlowStartWithoutLoss(t *testing.T) {
	p := newTFRCPair(0)
	initial := p.snd.rate
	p.snd.Start()
	p.sched.RunUntil(sim.Time(2 * sim.Second))

	if p.snd.rate < 8*initial {
		t.Fatalf("rate did not grow in lossless slow start: %v -> %v",
			initial, p.snd.rate)
	}
	if p.snd.FeedbackIn == 0 {
		t.Fatal("no feedback received")
	}
	if p.rcv.LossEvents != 0 {
		t.Fatal("phantom loss events")
	}
}

func TestTFRCRespondsToLoss(t *testing.T) {
	p := newTFRCPair(20) // 5% packet loss
	p.snd.Start()
	p.sched.RunUntil(sim.Time(20 * sim.Second))

	if p.rcv.LossEvents == 0 {
		t.Fatal("no loss events detected")
	}
	if p.snd.LastLossRate <= 0 {
		t.Fatal("sender never told about loss")
	}
	// The equation must hold approximately: measured rate ≈ X(p).
	want := ThroughputEquation(1000, p.snd.rtt.Seconds(), p.snd.LastLossRate)
	got := p.snd.rate
	if got > 2*want || got < want/4 {
		t.Fatalf("rate %v far from equation %v (p=%v)", got, want, p.snd.LastLossRate)
	}
}

func TestTFRCLossEventGroupingSubRTT(t *testing.T) {
	// Losses within one RTT of an event start must join that event.
	p := newTFRCPair(0)
	cfgRTT := 50 * sim.Millisecond
	_ = cfgRTT
	p.snd.Start()
	// Let a few packets flow, then handcraft arrivals with gaps.
	p.sched.RunUntil(sim.Time(500 * sim.Millisecond))
	ev := p.rcv.LossEvents
	// Synthesize: three consecutive missing sequences arriving as one gap
	// produce one loss event.
	base := p.rcv.expected
	p.rcv.Handle(&netsim.Packet{Flow: 1, Kind: netsim.Data, Seq: base + 3,
		Size: 1000, SendTime: p.sched.Now(), SenderRTT: 50 * sim.Millisecond})
	if p.rcv.LossEvents != ev+1 {
		t.Fatalf("3-packet gap produced %d events, want 1", p.rcv.LossEvents-ev)
	}
	if p.rcv.LostPkts < 3 {
		t.Fatalf("lost packets = %d", p.rcv.LostPkts)
	}

}

func TestTFRCNoFeedbackHalvesRate(t *testing.T) {
	s := sim.NewScheduler()
	blackhole := netsim.HandlerFunc(func(p *netsim.Packet) {})
	snd := NewTFRCSender(s, blackhole, TFRCConfig{Flow: 1, Src: 1, Dst: 2,
		PktSize: 1000, InitialRTT: 50 * sim.Millisecond})
	snd.Start()
	r0 := snd.rate
	s.RunUntil(sim.Time(2 * sim.Second)) // 10 no-feedback periods

	if snd.rate >= r0 {
		t.Fatalf("rate did not decay without feedback: %v -> %v", r0, snd.rate)
	}
	if snd.RateReductions == 0 {
		t.Fatal("no reductions counted")
	}
}

func TestTFRCLossEventRateZeroBeforeLoss(t *testing.T) {
	p := newTFRCPair(0)
	if p.rcv.LossEventRate() != 0 {
		t.Fatal("loss rate nonzero before any loss")
	}
}

func TestTFRCValidation(t *testing.T) {
	s := sim.NewScheduler()
	out := netsim.HandlerFunc(func(p *netsim.Packet) {})
	for _, f := range []func(){
		func() { NewTFRCSender(nil, out, TFRCConfig{}) },
		func() { NewTFRCReceiver(nil, out, TFRCConfig{}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
	_ = s
}
