// The dumbbell tests drive netsim's nodes, ports and queues through the one
// dumbbell builder, topo.NewDumbbell — hence the external test package
// (topo imports netsim).
package netsim_test

import (
	"math/rand"
	"testing"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// newDumbbell builds cfg on a fresh arena's scheduler.
func newDumbbell(cfg netsim.DumbbellConfig) (*sim.Scheduler, *topo.Dumbbell) {
	a := exp.NewArena()
	s := a.Scheduler()
	return s, topo.NewDumbbell(a, s, cfg)
}

func testDumbbell(t *testing.T, n int) (*sim.Scheduler, *topo.Dumbbell) {
	t.Helper()
	delays := make([]sim.Duration, n)
	for i := range delays {
		delays[i] = 10 * sim.Millisecond
	}
	return newDumbbell(netsim.DumbbellConfig{
		BottleneckRate:  100_000_000,
		BottleneckDelay: sim.Millisecond,
		AccessRate:      1_000_000_000,
		AccessDelays:    delays,
		Buffer:          50,
	})
}

func TestDumbbellRoundTrip(t *testing.T) {
	s, d := testDumbbell(t, 2)

	var atRecv, atSend []*netsim.Packet
	d.ReceiverNode(0).Bind(1, netsim.HandlerFunc(func(p *netsim.Packet) {
		atRecv = append(atRecv, p)
		// Echo an ACK back.
		ack := &netsim.Packet{ID: 1000 + p.ID, Flow: p.Flow, Kind: netsim.Ack, Size: 40,
			Src: p.Dst, Dst: p.Src, Ack: p.Seq + 1}
		d.ReceiverNode(0).Handle(ack)
	}))
	d.SenderNode(0).Bind(1, netsim.HandlerFunc(func(p *netsim.Packet) { atSend = append(atSend, p) }))

	pkt := &netsim.Packet{ID: 1, Flow: 1, Kind: netsim.Data, Size: 1000, Seq: 0,
		Src: netsim.SenderAddr(0), Dst: netsim.ReceiverAddr(0)}
	d.SenderNode(0).Handle(pkt)
	s.Run()

	if len(atRecv) != 1 || len(atSend) != 1 {
		t.Fatalf("recv=%d send=%d", len(atRecv), len(atSend))
	}
	if atSend[0].Ack != 1 {
		t.Fatalf("ack = %d", atSend[0].Ack)
	}
	// RTT should be ≈ 2·access + 2·bottleneck delay + tx times:
	// 2·10ms + 2·1ms = 22ms plus small serialization.
	rtt := s.Now()
	if rtt < sim.Time(22*sim.Millisecond) || rtt > sim.Time(23*sim.Millisecond) {
		t.Fatalf("round trip took %v", rtt)
	}
}

func TestDumbbellPairRTT(t *testing.T) {
	_, d := testDumbbell(t, 1)
	want := 2*10*sim.Millisecond + 2*sim.Millisecond
	if got := d.PairRTT(0); got != want {
		t.Fatalf("PairRTT = %v, want %v", got, want)
	}
}

func TestDumbbellIsolatesPairs(t *testing.T) {
	s, d := testDumbbell(t, 2)
	got0, got1 := 0, 0
	d.ReceiverNode(0).Bind(1, netsim.HandlerFunc(func(p *netsim.Packet) { got0++ }))
	d.ReceiverNode(1).Bind(2, netsim.HandlerFunc(func(p *netsim.Packet) { got1++ }))
	d.SenderNode(0).Handle(&netsim.Packet{ID: 1, Flow: 1, Kind: netsim.Data, Size: 100,
		Src: netsim.SenderAddr(0), Dst: netsim.ReceiverAddr(0)})
	d.SenderNode(1).Handle(&netsim.Packet{ID: 2, Flow: 2, Kind: netsim.Data, Size: 100,
		Src: netsim.SenderAddr(1), Dst: netsim.ReceiverAddr(1)})
	s.Run()
	if got0 != 1 || got1 != 1 {
		t.Fatalf("delivery: %d,%d", got0, got1)
	}
}

func TestDumbbellBottleneckDrops(t *testing.T) {
	s, d := newDumbbell(netsim.DumbbellConfig{
		BottleneckRate:  1_000_000, // slow bottleneck
		BottleneckDelay: sim.Millisecond,
		AccessRate:      1_000_000_000,
		AccessDelays:    []sim.Duration{2 * sim.Millisecond},
		Buffer:          5,
	})
	drops := 0
	d.Forward.OnDrop = func(p *netsim.Packet, at sim.Time) { drops++ }
	d.ReceiverNode(0).Bind(1, netsim.HandlerFunc(func(p *netsim.Packet) {}))
	// Blast 100 packets at time 0: access link is 1000x faster, so the
	// bottleneck queue (5) must overflow.
	for i := 0; i < 100; i++ {
		d.SenderNode(0).Handle(&netsim.Packet{ID: uint64(i), Flow: 1, Kind: netsim.Data,
			Size: 1000, Src: netsim.SenderAddr(0), Dst: netsim.ReceiverAddr(0)})
	}
	s.Run()
	if drops == 0 {
		t.Fatal("no drops at overloaded bottleneck")
	}
	if int(d.Forward.Dropped) != drops {
		t.Fatalf("counter mismatch: %d vs %d", d.Forward.Dropped, drops)
	}
}

func TestDumbbellUnboundFlowPanics(t *testing.T) {
	s, d := testDumbbell(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unbound flow")
		}
	}()
	d.SenderNode(0).Handle(&netsim.Packet{ID: 1, Flow: 42, Kind: netsim.Data, Size: 100,
		Src: netsim.SenderAddr(0), Dst: netsim.ReceiverAddr(0)})
	s.Run()
}

func TestNodeDefaultHandlerAndDropObserver(t *testing.T) {
	s := sim.NewScheduler()
	n := netsim.NewNode(s, 5)
	caught := 0
	n.BindDefault(netsim.HandlerFunc(func(p *netsim.Packet) { caught++ }))
	n.Handle(&netsim.Packet{Flow: 9, Dst: 5})
	if caught != 1 {
		t.Fatal("default handler not used")
	}

	n2 := netsim.NewNode(s, 6)
	dropped := 0
	n2.OnLocalDrop(func(p *netsim.Packet, at sim.Time) { dropped++ })
	n2.Handle(&netsim.Packet{Flow: 9, Dst: 6})
	if dropped != 1 {
		t.Fatal("local drop observer not used")
	}
}

func TestBDP(t *testing.T) {
	// 100 Mbps · 100 ms = 10 Mbit = 1.25 MB; at 1250 B/packet → 1000 packets.
	if got := netsim.BDP(100_000_000, 100*sim.Millisecond, 1250); got != 1000 {
		t.Fatalf("BDP = %d", got)
	}
	if got := netsim.BDP(1000, sim.Millisecond, 1500); got != 1 {
		t.Fatalf("tiny BDP should clamp to 1, got %d", got)
	}
}

func TestRandomAccessDelaysInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	lo, hi := 2*sim.Millisecond, 200*sim.Millisecond
	ds := netsim.RandomAccessDelays(rng, 500, lo, hi)
	if len(ds) != 500 {
		t.Fatalf("len = %d", len(ds))
	}
	for _, d := range ds {
		if d < lo || d > hi {
			t.Fatalf("delay %v out of [%v,%v]", d, lo, hi)
		}
	}
}

func TestDumbbellConfigValidation(t *testing.T) {
	for name, cfg := range map[string]netsim.DumbbellConfig{
		"no rate":   {AccessRate: 1, AccessDelays: []sim.Duration{1}, Buffer: 1},
		"no access": {BottleneckRate: 1, AccessDelays: []sim.Duration{1}, Buffer: 1},
		"no pairs":  {BottleneckRate: 1, AccessRate: 1, Buffer: 1},
		"no buffer": {BottleneckRate: 1, AccessRate: 1, AccessDelays: []sim.Duration{1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			newDumbbell(cfg)
		}()
	}
}

// TestDumbbellEndToEndConservation: across a full dumbbell, data packets
// offered by senders equal receiver deliveries plus bottleneck and access
// drops.
func TestDumbbellEndToEndConservation(t *testing.T) {
	s, d := newDumbbell(netsim.DumbbellConfig{
		BottleneckRate:  2_000_000,
		BottleneckDelay: sim.Millisecond,
		AccessRate:      100_000_000,
		AccessDelays:    []sim.Duration{5 * sim.Millisecond, 5 * sim.Millisecond},
		Buffer:          10,
	})
	got := 0
	for i := 0; i < 2; i++ {
		d.ReceiverNode(i).Bind(i+1, netsim.HandlerFunc(func(p *netsim.Packet) { got++ }))
	}
	drops := 0
	d.Forward.OnDrop = func(p *netsim.Packet, at sim.Time) { drops++ }

	rng := rand.New(rand.NewSource(5))
	const offered = 2000
	for i := 0; i < offered; i++ {
		i := i
		s.At(sim.Time(sim.Duration(rng.Intn(1000))*sim.Millisecond), func() {
			pair := i % 2
			d.SenderNode(pair).Handle(&netsim.Packet{
				ID: uint64(i), Flow: pair + 1, Kind: netsim.Data, Size: 1000,
				Src: netsim.SenderAddr(pair), Dst: netsim.ReceiverAddr(pair),
			})
		})
	}
	s.Run()
	if got+drops != offered {
		t.Fatalf("conservation violated: delivered=%d dropped=%d offered=%d",
			got, drops, offered)
	}
	if drops == 0 {
		t.Fatal("expected some drops at the 2 Mbps bottleneck")
	}
}
