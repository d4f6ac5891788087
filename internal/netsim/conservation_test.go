package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestPortConservation: for any arrival pattern, every offered packet is
// exactly one of {forwarded, dropped, still queued or in transit} — the
// port never duplicates or leaks packets.
func TestPortConservation(t *testing.T) {
	f := func(seed int64, nPkts uint8, limit uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.NewScheduler()
		delivered := 0
		dst := HandlerFunc(func(p *Packet) { delivered++ })
		lim := int(limit%20) + 1
		port := NewPort(s, NewDropTail(lim), NewLink(1_000_000, sim.Millisecond, dst))
		dropped := 0
		port.OnDrop = func(p *Packet, at sim.Time) { dropped++ }

		offered := int(nPkts) + 1
		for i := 0; i < offered; i++ {
			i := i
			s.At(sim.Time(sim.Duration(rng.Intn(50))*sim.Millisecond), func() {
				port.Handle(&Packet{ID: uint64(i), Size: rng.Intn(1400) + 100, Kind: Data})
			})
		}
		s.Run()
		if delivered+dropped != offered {
			return false
		}
		if int(port.Forwarded()) != delivered || int(port.Dropped) != dropped {
			return false
		}
		return port.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPortResetConservation: resetting a world mid-flight strands no
// packets — every packet not yet delivered must come back through the pool,
// exactly once, whether it was waiting in the queue, riding the batched
// port's delivery ring, serializing as txPkt, or evicted by a retune onto
// an individual delivery event (recovered via the scheduler's reset drain).
// The property is checked on both port implementations at a random
// mid-flight instant, with a looping modulator forcing ring rewinds and
// evictions before the cut.
func TestPortResetConservation(t *testing.T) {
	f := func(seed int64, nPkts, stopMs uint8, naive bool) bool {
		defer func(old bool) { NaivePortPath = old }(NaivePortPath)
		NaivePortPath = naive

		rng := rand.New(rand.NewSource(seed))
		s := sim.NewScheduler()
		delivered := 0
		dst := HandlerFunc(func(p *Packet) { delivered++ })
		link := NewLink(1_000_000, 2*sim.Millisecond, dst)
		port := NewPort(s, NewDropTail(6), link)
		port.Pool = NewPacketPool()
		s.SetResetDrain(func(a any) {
			if p, ok := a.(*Packet); ok {
				port.Pool.Put(p)
			}
		})
		m := NewStepModulator(s, link, []RateStep{
			{At: 3 * sim.Millisecond, Delay: 5 * sim.Millisecond},
			{At: 7 * sim.Millisecond, Rate: 2_000_000, Delay: sim.Millisecond},
		}, 11*sim.Millisecond)
		m.Start()

		// offered counts packets the port actually saw before the cut;
		// arrival events that never fired still own their packets.
		offered := 0
		for i := 0; i < int(nPkts)+20; i++ {
			i := i
			s.At(sim.Time(sim.Duration(rng.Intn(50))*sim.Millisecond), func() {
				offered++
				port.Handle(&Packet{ID: uint64(i), Size: rng.Intn(1400) + 100, Kind: Data})
			})
		}
		s.RunUntil(sim.Time(sim.Duration(stopMs%60) * sim.Millisecond))
		s.Reset()
		port.Reset()
		if delivered+len(port.Pool.free) != offered {
			return false
		}
		seen := make(map[*Packet]bool, len(port.Pool.free))
		for _, p := range port.Pool.free {
			if p == nil || seen[p] {
				return false
			}
			seen[p] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestREDConservation: the same invariant for a RED queue, including ECN
// marking (marked packets are forwarded, not dropped).
func TestREDConservation(t *testing.T) {
	f := func(seed int64, nPkts uint8, ecn bool) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.NewScheduler()
		delivered, marked := 0, 0
		dst := HandlerFunc(func(p *Packet) {
			delivered++
			if p.CE {
				marked++
			}
		})
		red := NewRED(REDConfig{Limit: 20, MinTh: 3, MaxTh: 9, MaxP: 0.2, ECN: ecn},
			rand.New(rand.NewSource(seed+1)))
		port := NewPort(s, red, NewLink(1_000_000, 0, dst))
		dropped := 0
		port.OnDrop = func(p *Packet, at sim.Time) { dropped++ }

		offered := int(nPkts) + 50
		for i := 0; i < offered; i++ {
			i := i
			s.At(sim.Time(sim.Duration(rng.Intn(20))*sim.Millisecond), func() {
				port.Handle(&Packet{ID: uint64(i), Size: 500, Kind: Data, ECT: ecn})
			})
		}
		s.Run()
		if delivered+dropped != offered {
			return false
		}
		if int(red.Marked) != marked {
			return false
		}
		// ECN-capable traffic below the hard limit should rarely drop; with
		// ECN off it must drop under this load... both cases just require
		// conservation, asserted above.
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
