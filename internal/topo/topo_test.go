package topo_test

import (
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// chainSpec builds a three-hop parking-lot-shaped chain with two endpoint
// pairs, optionally putting a RED queue on the middle hop. With a RED spec
// the middle hop also gets half the rate of the outer hops, making the
// inner queue the chain's bottleneck.
func chainSpec(buffer int, innerRED *topo.REDSpec) topo.Spec {
	s := topo.Spec{Name: "chain"}
	for _, n := range []string{"R0", "R1", "R2", "R3", "s0", "s1", "r0", "r1"} {
		s.Nodes = append(s.Nodes, topo.NodeSpec{Name: n})
	}
	hop := func(a, b string, rate int64, q topo.QueueSpec) topo.LinkSpec {
		return topo.LinkSpec{A: a, B: b,
			AB: topo.Dir{Rate: rate, Delay: sim.Millisecond, Queue: q}}
	}
	innerRate := int64(4_000_000)
	if innerRED != nil {
		innerRate = 2_000_000
	}
	s.Links = append(s.Links,
		hop("R0", "R1", 4_000_000, topo.QueueSpec{Limit: buffer}),
		hop("R1", "R2", innerRate, topo.QueueSpec{Limit: buffer, RED: innerRED}),
		hop("R2", "R3", 4_000_000, topo.QueueSpec{Limit: buffer}),
		topo.LinkSpec{A: "s0", B: "R0", AB: topo.Dir{Rate: 100_000_000, Delay: 2 * sim.Millisecond}},
		topo.LinkSpec{A: "s1", B: "R0", AB: topo.Dir{Rate: 100_000_000, Delay: 5 * sim.Millisecond}},
		topo.LinkSpec{A: "R3", B: "r0", AB: topo.Dir{Rate: 100_000_000, Delay: 2 * sim.Millisecond}},
		topo.LinkSpec{A: "R3", B: "r1", AB: topo.Dir{Rate: 100_000_000, Delay: 5 * sim.Millisecond}},
	)
	s.Flows = append(s.Flows,
		topo.FlowSpec{From: "s0", To: "r0"},
		topo.FlowSpec{From: "s1", To: "r1"},
	)
	return s
}

func TestBuildValidationErrors(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		spec topo.Spec
		want string
	}{
		{"no nodes", topo.Spec{Name: "x"}, "has no nodes"},
		{"dup node", topo.Spec{Name: "x", Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "a"}}},
			"declares node \"a\" twice"},
		{"dup addr", topo.Spec{Name: "x", Nodes: []topo.NodeSpec{{Name: "a", Addr: 7}, {Name: "b", Addr: 7}}},
			"share address 7"},
		{"address above the index bound", topo.Spec{Name: "x", Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b", Addr: 1<<20 + 1}}},
			"above the limit"},
		{"unknown link end", topo.Spec{Name: "x",
			Nodes: []topo.NodeSpec{{Name: "a"}},
			Links: []topo.LinkSpec{{A: "a", B: "ghost", AB: topo.Dir{Rate: 1}}}},
			"unknown node"},
		{"self loop", topo.Spec{Name: "x",
			Nodes: []topo.NodeSpec{{Name: "a"}},
			Links: []topo.LinkSpec{{A: "a", B: "a", AB: topo.Dir{Rate: 1}}}},
			"self-loop"},
		{"zero rate", topo.Spec{Name: "x",
			Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b"}},
			Links: []topo.LinkSpec{{A: "a", B: "b"}}},
			"positive rate"},
		{"parallel links", topo.Spec{Name: "x",
			Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b"}},
			Links: []topo.LinkSpec{
				{A: "a", B: "b", AB: topo.Dir{Rate: 1}},
				{A: "b", B: "a", AB: topo.Dir{Rate: 1}}}},
			"parallel links"},
		{"unknown flow node", topo.Spec{Name: "x",
			Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b"}},
			Links: []topo.LinkSpec{{A: "a", B: "b", AB: topo.Dir{Rate: 1}}},
			Flows: []topo.FlowSpec{{From: "a", To: "ghost"}}},
			"unknown node"},
		{"partial reverse dir", topo.Spec{Name: "x",
			Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b"}},
			Links: []topo.LinkSpec{{A: "a", B: "b",
				AB: topo.Dir{Rate: 1},
				BA: topo.Dir{Delay: 50 * sim.Millisecond}}}},
			"reverse direction sets delay/queue/dynamics but no rate"},
		{"bad RED", topo.Spec{Name: "x",
			Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b"}},
			Links: []topo.LinkSpec{{A: "a", B: "b",
				AB: topo.Dir{Rate: 1, Queue: topo.QueueSpec{RED: &topo.REDSpec{MinTh: 5, MaxTh: 1, MaxP: 0.1}}}}}},
			"RED thresholds"},
		{"disconnected flow", topo.Spec{Name: "x",
			Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b"}, {Name: "c"}},
			Links: []topo.LinkSpec{{A: "a", B: "b", AB: topo.Dir{Rate: 1}}},
			Flows: []topo.FlowSpec{{From: "a", To: "c"}}},
			"no route"},
	}
	for _, tc := range cases {
		_, err := topo.Build(sim.NewScheduler(), tc.spec, 1)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// The largest accepted address compiles, and a packet for an address the
// world does not have — inside the shared index or beyond it — panics at
// the node that cannot forward it, as it did when routes were a map.
func TestSparseAddressesRouteThroughTheIndex(t *testing.T) {
	t.Parallel()
	spec := topo.Spec{Name: "sparse",
		Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b", Addr: 1 << 20}, {Name: "c", Addr: 77}},
		Links: []topo.LinkSpec{
			{A: "a", B: "c", AB: topo.Dir{Rate: 1_000_000, Delay: sim.Millisecond}},
			{A: "c", B: "b", AB: topo.Dir{Rate: 1_000_000, Delay: sim.Millisecond}}},
		Flows: []topo.FlowSpec{{From: "a", To: "b"}}}
	net, err := topo.Build(sim.NewScheduler(), spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	net.Node("b").BindDefault(netsim.HandlerFunc(func(p *netsim.Packet) { got++ }))
	net.Node("a").Handle(&netsim.Packet{Size: 100, Src: net.Addr("a"), Dst: net.Addr("b")})
	net.Sched.Run()
	if got != 1 {
		t.Fatalf("packet for address %d not delivered across two hops", net.Addr("b"))
	}
	for _, dst := range []int{50, 1<<20 + 5} {
		func() {
			defer func() {
				want := "netsim: node 1: no route to " + strconv.Itoa(dst)
				if r := recover(); r != want {
					t.Errorf("dst %d: panic %v, want %q", dst, r, want)
				}
			}()
			net.Node("a").Handle(&netsim.Packet{Size: 100, Dst: dst})
		}()
	}
}

func TestBuildRoutesAndRTTs(t *testing.T) {
	t.Parallel()
	net, err := topo.Build(sim.NewScheduler(), chainSpec(10, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Flow 0: s0 → R0 → R1 → R2 → R3 → r0. One way: 2+1+1+1+2 = 7 ms.
	if got, want := net.FlowRTT(0), 14*sim.Millisecond; got != want {
		t.Fatalf("flow 0 RTT = %v, want %v", got, want)
	}
	// Flow 1: 5+3+5 one way → 26 ms round trip.
	if got, want := net.FlowRTT(1), 26*sim.Millisecond; got != want {
		t.Fatalf("flow 1 RTT = %v, want %v", got, want)
	}
	if got, want := net.MeanFlowRTT(), 20*sim.Millisecond; got != want {
		t.Fatalf("mean RTT = %v, want %v", got, want)
	}
	if net.NumFlows() != 2 {
		t.Fatalf("flows = %d", net.NumFlows())
	}
	// 7 links → 14 directed ports, in declaration order.
	ports := net.Ports()
	if len(ports) != 14 {
		t.Fatalf("ports = %d", len(ports))
	}
	if ports[0].From != "R0" || ports[0].To != "R1" || ports[1].From != "R1" || ports[1].To != "R0" {
		t.Fatalf("port order broken: %+v %+v", ports[0], ports[1])
	}
	// A packet handed to s0 for r1's address must arrive at r1.
	delivered := false
	net.Node("r1").BindDefault(netsim.HandlerFunc(func(p *netsim.Packet) { delivered = true }))
	net.Node("s0").Handle(&netsim.Packet{Flow: 99, Kind: netsim.Data, Size: 100,
		Src: net.Addr("s0"), Dst: net.Addr("r1")})
	net.Sched.Run()
	if !delivered {
		t.Fatal("cross-pair packet not routed end to end")
	}
}

// TestChainConservation: every packet offered to a multi-hop topology is
// exactly one of {delivered, dropped at some queue} — no loss happens
// anywhere but at a full queue, and nothing is duplicated or leaked.
func TestChainConservation(t *testing.T) {
	t.Parallel()
	sched := sim.NewScheduler()
	net, err := topo.Build(sched, chainSpec(5, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	delivered, dropped := 0, 0
	for _, name := range []string{"r0", "r1"} {
		net.Node(name).BindDefault(netsim.HandlerFunc(func(p *netsim.Packet) { delivered++ }))
	}
	for _, pi := range net.Ports() {
		pi.Port.OnDrop = func(p *netsim.Packet, at sim.Time) { dropped++ }
	}

	rng := rand.New(rand.NewSource(3))
	const offered = 3000
	for i := 0; i < offered; i++ {
		i := i
		sched.At(sim.Time(sim.Duration(rng.Intn(400))*sim.Millisecond), func() {
			pair := i % 2
			src, dst := "s0", "r0"
			if pair == 1 {
				src, dst = "s1", "r1"
			}
			net.Node(src).Handle(&netsim.Packet{
				ID: uint64(i), Flow: pair + 1, Kind: netsim.Data, Size: 1000,
				Src: net.Addr(src), Dst: net.Addr(dst),
			})
		})
	}
	sched.Run()
	if delivered+dropped != offered {
		t.Fatalf("conservation violated: delivered=%d dropped=%d offered=%d",
			delivered, dropped, offered)
	}
	if dropped == 0 {
		t.Fatal("expected drops at the 4 Mbps chain under this load")
	}
	// No loss without a full queue: forwarded+dropped must equal arrivals
	// at every port, and ports with spare queue room never dropped.
	for _, pi := range net.Ports() {
		if pi.Port.Dropped > 0 && pi.Port.QueueLen() != 0 {
			t.Fatalf("port %s→%s ended with %d queued", pi.From, pi.To, pi.Port.QueueLen())
		}
	}
}

// TestREDOnInnerHop: a RED queue declared on a middle hop of a chain
// drops early (or marks) with the builder-derived seeded stream, and the
// world stays a pure function of (spec, seed).
func TestREDOnInnerHop(t *testing.T) {
	t.Parallel()
	red := &topo.REDSpec{MinTh: 2, MaxTh: 16, MaxP: 0.1}
	// Moderate overload (~1.3× the 2 Mbps inner hop) keeps the average
	// queue inside RED's randomized band instead of pinning it at the
	// hard limit, so the seeded stream actually decides which packets go.
	run := func(seed int64) (delivered int, innerDrops []uint64) {
		sched := sim.NewScheduler()
		net, err := topo.Build(sched, chainSpec(20, red), seed)
		if err != nil {
			t.Fatal(err)
		}
		dropped := 0
		for _, name := range []string{"r0", "r1"} {
			net.Node(name).BindDefault(netsim.HandlerFunc(func(p *netsim.Packet) { delivered++ }))
		}
		for _, pi := range net.Ports() {
			pi.Port.OnDrop = func(p *netsim.Packet, at sim.Time) { dropped++ }
		}
		net.Port("R1", "R2").OnDrop = func(p *netsim.Packet, at sim.Time) {
			dropped++
			innerDrops = append(innerDrops, p.ID)
		}
		rng := rand.New(rand.NewSource(7))
		const offered = 2000
		for i := 0; i < offered; i++ {
			i := i
			sched.At(sim.Time(sim.Duration(rng.Intn(6000))*sim.Millisecond), func() {
				net.Node("s0").Handle(&netsim.Packet{
					ID: uint64(i), Flow: 1, Kind: netsim.Data, Size: 1000,
					Src: net.Addr("s0"), Dst: net.Addr("r0"),
				})
			})
		}
		sched.Run()
		if delivered+dropped != offered {
			t.Fatalf("conservation violated with RED inner hop: %d+%d != %d",
				delivered, dropped, offered)
		}
		return delivered, innerDrops
	}

	d1, i1 := run(1)
	if len(i1) == 0 {
		t.Fatal("RED inner hop never dropped under sustained overload")
	}
	// Same seed → identical world; different seed → RED's random
	// early-drop decisions pick different packets.
	d2, i2 := run(1)
	if d1 != d2 || !reflect.DeepEqual(i1, i2) {
		t.Fatalf("same seed diverged: %d/%d drops vs %d/%d", d1, len(i1), d2, len(i2))
	}
	_, i3 := run(99)
	if reflect.DeepEqual(i1, i3) {
		t.Fatal("different RED seeds produced identical drop sequences; seeding inert")
	}
}

func TestRegistryRegisterAndLookup(t *testing.T) {
	// Not parallel: mutates the global registry.
	name := "test-registry-scenario"
	topo.Register(topo.Scenario{
		Name:        name,
		Description: "registry round-trip",
		RunIn: func(topo.ScenarioConfig, *exp.Arena) (*topo.ScenarioResult, error) {
			return nil, nil
		},
	})
	if _, ok := topo.Lookup(name); !ok {
		t.Fatal("registered scenario not found")
	}
	found := false
	for _, n := range topo.Names() {
		if n == name {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names() missing %q: %v", name, topo.Names())
	}
	// Sorted order.
	names := topo.Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	topo.Register(topo.Scenario{Name: name, RunIn: func(topo.ScenarioConfig, *exp.Arena) (*topo.ScenarioResult, error) { return nil, nil }})
}
