package crosstraffic

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestOnOffAverageRate(t *testing.T) {
	s := sim.NewScheduler()
	var bits int64
	out := netsim.HandlerFunc(func(p *netsim.Packet) { bits += int64(p.Size) * 8 })
	cfg := OnOffConfig{
		Flow: 1, Src: 1, Dst: 2, PktSize: 500,
		PeakRate: 1_000_000,
		MeanOn:   100 * sim.Millisecond,
		MeanOff:  100 * sim.Millisecond,
	}
	o := NewOnOff(s, out, cfg, sim.NewRand(1))
	o.Start()
	const seconds = 200
	s.RunUntil(sim.Time(seconds * sim.Second))
	got := float64(bits) / seconds
	const want = 500_000 // PeakRate × MeanOn/(MeanOn+MeanOff)
	if got < 0.85*want || got > 1.15*want {
		t.Fatalf("measured rate %v, want ≈ %v", got, want)
	}
}

func TestOnOffBurstsAtPeakRate(t *testing.T) {
	s := sim.NewScheduler()
	var times []sim.Time
	out := netsim.HandlerFunc(func(p *netsim.Packet) { times = append(times, s.Now()) })
	o := NewOnOff(s, out, OnOffConfig{
		Flow: 1, Src: 1, Dst: 2, PktSize: 500,
		PeakRate: 4_000_000, // 1 ms per packet
		MeanOn:   50 * sim.Millisecond,
		MeanOff:  50 * sim.Millisecond,
	}, sim.NewRand(2))
	o.Start()
	s.RunUntil(sim.Time(10 * sim.Second))
	if len(times) < 100 {
		t.Fatalf("only %d packets", len(times))
	}
	// Within a burst the spacing must equal the peak-rate interval (1 ms);
	// across bursts it is larger. Count both kinds.
	inBurst, gaps := 0, 0
	for i := 1; i < len(times); i++ {
		d := times[i].Sub(times[i-1])
		if d == sim.Millisecond {
			inBurst++
		} else if d > 2*sim.Millisecond {
			gaps++
		}
	}
	if inBurst == 0 {
		t.Fatal("no back-to-back peak-rate packets")
	}
	if gaps == 0 {
		t.Fatal("no off periods observed")
	}
}

func TestNoiseSetAggregateRate(t *testing.T) {
	s := sim.NewScheduler()
	var bits int64
	out := netsim.HandlerFunc(func(p *netsim.Packet) { bits += int64(p.Size) * 8 })
	const capacity = 100_000_000
	set := NoiseSet(s, out, 50, capacity, 0.10, 5000, 1, 2, 42, nil)
	if len(set) != 50 {
		t.Fatalf("set size %d", len(set))
	}
	for _, o := range set {
		o.Start()
	}
	const seconds = 50
	s.RunUntil(sim.Time(seconds * sim.Second))
	got := float64(bits) / seconds
	want := 0.10 * capacity
	if got < 0.85*want || got > 1.15*want {
		t.Fatalf("aggregate noise %v bps, want ≈ %v", got, want)
	}
}

func TestNoiseSetDistinctFlows(t *testing.T) {
	s := sim.NewScheduler()
	out := netsim.HandlerFunc(func(p *netsim.Packet) {})
	set := NoiseSet(s, out, 10, 1_000_000, 0.1, 700, 1, 2, 7, nil)
	seen := map[int]bool{}
	for _, o := range set {
		if seen[o.cfg.Flow] {
			t.Fatal("duplicate flow id")
		}
		seen[o.cfg.Flow] = true
	}
	if !seen[700] || !seen[709] {
		t.Fatal("flow numbering wrong")
	}
}

func TestOnOffValidation(t *testing.T) {
	s := sim.NewScheduler()
	out := netsim.HandlerFunc(func(p *netsim.Packet) {})
	rng := sim.NewRand(1)
	for _, f := range []func(){
		func() { NewOnOff(nil, out, OnOffConfig{PeakRate: 1, MeanOn: 1}, rng) },
		func() { NewOnOff(s, out, OnOffConfig{PeakRate: 0, MeanOn: 1}, rng) },
		func() { NewOnOff(s, out, OnOffConfig{PeakRate: 1, MeanOn: 0}, rng) },
		func() { NewOnOff(s, out, OnOffConfig{PeakRate: 1, MeanOn: 1}, nil) },
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
}
