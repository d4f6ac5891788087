package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func testLink(dst Handler) *Link { return NewLink(10_000_000, sim.Millisecond, dst) }

func discard() Handler { return HandlerFunc(func(p *Packet) {}) }

// TestStepModulatorAppliesSchedule checks every step fires at its offset,
// zero fields keep the current value, and a non-looping schedule stops.
func TestStepModulatorApplies(t *testing.T) {
	s := sim.NewScheduler()
	l := testLink(discard())
	m := NewStepModulator(s, l, []RateStep{
		{At: sim.Second, Rate: 5_000_000},
		{At: 2 * sim.Second, Delay: 20 * sim.Millisecond}, // rate kept
		{At: 3 * sim.Second, Rate: 1_000_000, Delay: 5 * sim.Millisecond},
	}, 0)
	m.Start()

	s.RunUntil(sim.Time(1500 * sim.Millisecond))
	if l.Rate != 5_000_000 || l.Delay != sim.Millisecond {
		t.Fatalf("after step 0: rate=%d delay=%v", l.Rate, l.Delay)
	}
	s.RunUntil(sim.Time(2500 * sim.Millisecond))
	if l.Rate != 5_000_000 || l.Delay != 20*sim.Millisecond {
		t.Fatalf("after step 1: rate=%d delay=%v", l.Rate, l.Delay)
	}
	s.RunUntil(sim.Time(10 * sim.Second))
	if l.Rate != 1_000_000 || l.Delay != 5*sim.Millisecond {
		t.Fatalf("after step 2: rate=%d delay=%v", l.Rate, l.Delay)
	}
	if m.Retunes != 3 {
		t.Fatalf("retunes = %d, want 3", m.Retunes)
	}
	if s.Pending() != 0 {
		t.Fatalf("non-looping schedule left %d events pending", s.Pending())
	}
}

// TestStepModulatorLoops replays the schedule every loop period.
func TestStepModulatorLoops(t *testing.T) {
	s := sim.NewScheduler()
	l := testLink(discard())
	m := NewStepModulator(s, l, []RateStep{
		{At: 0, Rate: 8_000_000},
		{At: 600 * sim.Millisecond, Rate: 2_000_000},
	}, sim.Second)
	m.Start()

	for cycle := 0; cycle < 3; cycle++ {
		base := sim.Duration(cycle) * sim.Second
		s.RunUntil(sim.Time(base + 300*sim.Millisecond))
		if l.Rate != 8_000_000 {
			t.Fatalf("cycle %d up phase: rate=%d", cycle, l.Rate)
		}
		s.RunUntil(sim.Time(base + 900*sim.Millisecond))
		if l.Rate != 2_000_000 {
			t.Fatalf("cycle %d down phase: rate=%d", cycle, l.Rate)
		}
	}
	if m.Retunes != 6 {
		t.Fatalf("retunes = %d, want 6", m.Retunes)
	}
}

// TestRandomWalk: bounded, seeded-deterministic, and actually moving.
func TestRandomWalk(t *testing.T) {
	walk := func(seed int64) []int64 {
		s := sim.NewScheduler()
		l := testLink(discard())
		m := NewRandomWalk(s, l, 2_000_000, 50_000_000, 1.5,
			100*sim.Millisecond, rand.New(rand.NewSource(seed)))
		m.Start()
		var rates []int64
		for i := 1; i <= 100; i++ {
			s.RunUntil(sim.Time(sim.Duration(i) * 100 * sim.Millisecond))
			if l.Rate < 2_000_000 || l.Rate > 50_000_000 {
				t.Fatalf("tick %d: rate %d escaped the bounds", i, l.Rate)
			}
			rates = append(rates, l.Rate)
		}
		return rates
	}
	a, b := walk(7), walk(7)
	moved := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at tick %d: %d vs %d", i, a[i], b[i])
		}
		if i > 0 && a[i] != a[i-1] {
			moved = true
		}
	}
	if !moved {
		t.Fatal("walk never changed the rate")
	}
	c := walk(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced the identical walk")
	}
}

// TestModulatedPortConservation is the rate-change safety property: for
// any arrival pattern over a port whose link is being aggressively
// retuned (including to near-zero rates), every offered packet is
// delivered exactly once or dropped exactly once — the modulator neither
// loses nor duplicates packets, and the queue drains completely.
func TestModulatedPortConservation(t *testing.T) {
	f := func(seed int64, nPkts uint8, limit uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.NewScheduler()
		seen := map[uint64]int{}
		delivered := 0
		dst := HandlerFunc(func(p *Packet) {
			delivered++
			seen[p.ID]++
		})
		lim := int(limit%20) + 1
		link := NewLink(1_000_000, sim.Millisecond, dst)
		port := NewPort(s, NewDropTail(lim), link)
		dropped := 0
		port.OnDrop = func(p *Packet, at sim.Time) {
			dropped++
			seen[p.ID]++
		}

		// Retune every 3 ms across three orders of magnitude, with delay
		// changes mixed in (delay decreases may reorder deliveries; they
		// must never lose or duplicate them).
		m := NewStepModulator(s, link, []RateStep{
			{At: 0, Rate: 1_000_000},
			{At: 3 * sim.Millisecond, Rate: 20_000, Delay: 10 * sim.Millisecond},
			{At: 6 * sim.Millisecond, Rate: 5_000_000, Delay: 100 * sim.Microsecond},
			{At: 9 * sim.Millisecond, Rate: 100_000},
		}, 12*sim.Millisecond)
		m.Start()

		offered := int(nPkts) + 1
		for i := 0; i < offered; i++ {
			i := i
			s.At(sim.Time(sim.Duration(rng.Intn(50))*sim.Millisecond), func() {
				port.Handle(&Packet{ID: uint64(i), Size: rng.Intn(1400) + 100, Kind: Data})
			})
		}
		// The looping modulator keeps one event pending forever; run until
		// well past the last possible delivery instead of draining (the
		// cycle-average rate is ~1.5 Mbps, so 5 s clears any backlog).
		s.RunUntil(sim.Time(5 * sim.Second))
		if delivered+dropped != offered {
			return false
		}
		for _, n := range seen {
			if n != 1 {
				return false // duplicated or double-counted
			}
		}
		if int(port.Forwarded()) != delivered || int(port.Dropped) != dropped {
			return false
		}
		return port.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkLossConservation: with a wire-loss process installed, offered =
// delivered + queue drops + wire drops, both drop kinds fire OnDrop, and
// dropped packets recycle into the pool without double-frees.
func TestLinkLossConservation(t *testing.T) {
	f := func(seed int64, nPkts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		lossRng := rand.New(rand.NewSource(seed + 1))
		s := sim.NewScheduler()
		pool := NewPacketPool()
		delivered := 0
		dst := HandlerFunc(func(p *Packet) {
			delivered++
			pool.Put(p)
		})
		port := NewPort(s, NewDropTail(8), NewLink(1_000_000, sim.Millisecond, dst))
		port.Pool = pool
		port.LinkLoss = func() bool { return lossRng.Float64() < 0.3 }
		observed := 0
		var lastAt sim.Time
		port.OnDrop = func(p *Packet, at sim.Time) {
			observed++
			if at < lastAt {
				t.Fatal("drop observer saw time run backwards")
			}
			lastAt = at
		}

		offered := int(nPkts) + 20
		for i := 0; i < offered; i++ {
			s.At(sim.Time(sim.Duration(rng.Intn(40))*sim.Millisecond), func() {
				p := pool.Get()
				p.Size = rng.Intn(1400) + 100
				p.Kind = Data
				port.Handle(p)
			})
		}
		s.Run()
		if delivered+int(port.Dropped)+int(port.LinkDropped) != offered {
			return false
		}
		if observed != int(port.Dropped)+int(port.LinkDropped) {
			return false
		}
		// Forwarded counts serialization completions, wire drops included.
		if int(port.Forwarded()) != delivered+int(port.LinkDropped) {
			return false
		}
		return port.QueueLen() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLinkLossAlways: a wire that loses everything delivers nothing but
// still conserves and recycles.
func TestLinkLossAlways(t *testing.T) {
	s := sim.NewScheduler()
	pool := NewPacketPool()
	port := NewPort(s, NewDropTail(100), NewLink(1_000_000, 0, discard()))
	port.Pool = pool
	port.LinkLoss = func() bool { return true }
	const offered = 50
	for i := 0; i < offered; i++ {
		p := pool.Get()
		p.Size = 1000
		port.Handle(p)
	}
	// Get slab-allocates, so the pool may hold spare packets already; every
	// offered packet must come back on top of that baseline.
	base := len(pool.free)
	s.Run()
	if port.LinkDropped != offered || port.Forwarded() != offered {
		t.Fatalf("LinkDropped=%d Forwarded=%d, want %d/%d",
			port.LinkDropped, port.Forwarded(), offered, offered)
	}
	if got := len(pool.free); got != base+offered {
		t.Fatalf("pool holds %d packets, want %d recycled", got, base+offered)
	}
}

// TestModulatorValidation: the constructors reject malformed programs.
func TestModulatorValidation(t *testing.T) {
	s := sim.NewScheduler()
	l := testLink(discard())
	rng := rand.New(rand.NewSource(1))
	cases := map[string]func(){
		"no steps":       func() { NewStepModulator(s, l, nil, 0) },
		"unsorted steps": func() { NewStepModulator(s, l, []RateStep{{At: sim.Second}, {At: sim.Second}}, 0) },
		"negative step":  func() { NewStepModulator(s, l, []RateStep{{At: -1}}, 0) },
		"short loop": func() {
			NewStepModulator(s, l, []RateStep{{At: 2 * sim.Second, Rate: 1}}, sim.Second)
		},
		"walk bounds":   func() { NewRandomWalk(s, l, 10, 5, 1.5, sim.Second, rng) },
		"walk factor":   func() { NewRandomWalk(s, l, 1, 2, 1.0, sim.Second, rng) },
		"walk nil rng":  func() { NewRandomWalk(s, l, 1, 2, 1.5, sim.Second, nil) },
		"walk interval": func() { NewRandomWalk(s, l, 1, 2, 1.5, 0, rng) },
		"nil link":      func() { NewRandomWalk(s, nil, 1, 2, 1.5, sim.Second, rng) },
		"double start": func() {
			m := NewRandomWalk(sim.NewScheduler(), testLink(discard()), 1, 2, 1.5, sim.Second, rng)
			m.Start()
			m.Start()
		},
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
