package netsim

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// star is a router (address 10) with one 1 Gbps / 1 ms port to each of
// three hosts on a sparse address plan. The indexed build forwards through
// a shared address→slot index as topo.Instantiate wires it; the hand-built
// one has no index, so its slots are the addresses themselves.
type star struct {
	sched  *sim.Scheduler
	router *Node
	hosts  []*Node
	log    []string // "time host flow id" per delivery
}

var starHosts = []int{1000, 2000, 2003}

const starRouter = 10

func newStar(indexed bool) *star {
	st := &star{sched: sim.NewScheduler()}
	var index []int32
	if indexed {
		index = make([]int32, 2004)
		for i := range index {
			index[i] = -1
		}
		index[starRouter] = 0
		for i, a := range starHosts {
			index[a] = int32(1 + i)
		}
	}
	mk := func(addr int) *Node {
		n := NewNode(st.sched, addr)
		if indexed {
			n.SetIndex(index, 1+len(starHosts))
		}
		return n
	}
	st.router = mk(starRouter)
	for _, a := range starHosts {
		h := mk(a)
		st.hosts = append(st.hosts, h)
		st.router.AddRoute(a, NewPort(st.sched, NewDropTail(16), NewLink(1_000_000_000, sim.Millisecond, h)))
	}
	return st
}

// record returns a handler that logs a delivery at host under tag.
func (st *star) record(host int, tag string) Handler {
	return HandlerFunc(func(p *Packet) {
		st.log = append(st.log, fmt.Sprintf("%v %d %s flow=%d id=%d", st.sched.Now(), host, tag, p.Flow, p.ID))
	})
}

func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func TestNodeForwarding(t *testing.T) {
	for _, indexed := range []bool{true, false} {
		name := map[bool]string{true: "indexed", false: "hand-built"}[indexed]

		// Unknown destinations panic at the node that cannot forward, with
		// the same text wherever the address falls: an index hole or an
		// empty table slot, beyond the index or the table, negative.
		for _, dst := range []int{1500, 2001, 5000, 1 << 40, -3} {
			st := newStar(indexed)
			want := fmt.Sprintf("netsim: node %d: no route to %d", starRouter, dst)
			if got := panicText(func() { st.router.Handle(&Packet{Dst: dst}) }); got != want {
				t.Errorf("%s: dst %d: panic %q, want %q", name, dst, got, want)
			}
		}

		// Local delivery falls from the flow's binding to the default
		// handler to the drop observer to a panic.
		st := newStar(indexed)
		h := st.hosts[0]
		h.Bind(7, st.record(h.Addr, "bound"))
		h.BindDefault(st.record(h.Addr, "default"))
		dropped := 0
		h.OnLocalDrop(func(p *Packet, at sim.Time) { dropped++ })
		h.Handle(&Packet{ID: 1, Flow: 7, Dst: h.Addr})
		h.Handle(&Packet{ID: 2, Flow: 9, Dst: h.Addr})
		h.BindDefault(nil)
		h.Handle(&Packet{ID: 3, Flow: 9, Dst: h.Addr})
		h.OnLocalDrop(nil)
		want := fmt.Sprintf("netsim: node %d: no handler for flow 9", h.Addr)
		if got := panicText(func() { h.Handle(&Packet{ID: 4, Flow: 9, Dst: h.Addr}) }); got != want {
			t.Errorf("%s: unbound flow: panic %q, want %q", name, got, want)
		}
		// Re-Bind replaces the handler in place; other bindings stay.
		h.Bind(8, st.record(h.Addr, "other"))
		h.Bind(7, st.record(h.Addr, "rebound"))
		h.Handle(&Packet{ID: 5, Flow: 7, Dst: h.Addr})
		h.Handle(&Packet{ID: 6, Flow: 8, Dst: h.Addr})
		wantLog := []string{
			"0.000000000s 1000 bound flow=7 id=1",
			"0.000000000s 1000 default flow=9 id=2",
			"0.000000000s 1000 rebound flow=7 id=5",
			"0.000000000s 1000 other flow=8 id=6",
		}
		if !reflect.DeepEqual(st.log, wantLog) || dropped != 1 {
			t.Errorf("%s: local delivery log %q (drops %d), want %q (drops 1)", name, st.log, dropped, wantLog)
		}
		if len(h.local) != 2 {
			t.Errorf("%s: %d bindings after a re-Bind, want 2", name, len(h.local))
		}

		// Reset drops every binding and keeps the routes.
		st.router.Bind(1, st.record(starRouter, "bound"))
		st.router.BindDefault(st.record(starRouter, "default"))
		st.router.Reset()
		h.Reset()
		if got := panicText(func() { h.Handle(&Packet{Flow: 7, Dst: h.Addr}) }); got == "" {
			t.Errorf("%s: binding survived Reset", name)
		}
		if got := panicText(func() { st.router.Handle(&Packet{Flow: 1, Dst: starRouter}) }); got == "" {
			t.Errorf("%s: router binding or default handler survived Reset", name)
		}
		if cap(h.local) < 2 {
			t.Errorf("%s: Reset gave up the binding list's capacity", name)
		}
		st.log = nil
		h.BindDefault(st.record(h.Addr, "default"))
		st.router.Handle(&Packet{ID: 7, Flow: 7, Size: 1250, Dst: h.Addr})
		st.sched.Run()
		if want := []string{"0.001010000s 1000 default flow=7 id=7"}; !reflect.DeepEqual(st.log, want) {
			t.Errorf("%s: after Reset the router delivered %q, want %q", name, st.log, want)
		}
	}
}

// An indexed node and a hand-built one forward the same script to the same
// hosts at the same instants.
func TestNodeForwardingIndexedMatchesHandBuilt(t *testing.T) {
	run := func(indexed bool) []string {
		st := newStar(indexed)
		for i, h := range st.hosts {
			h.Bind(i, st.record(h.Addr, "bound"))
			h.BindDefault(st.record(h.Addr, "default"))
		}
		rng := sim.NewRand(7)
		for i := 0; i < 200; i++ {
			p := &Packet{ID: uint64(i), Flow: rng.Intn(4), Size: 40 + rng.Intn(1460), Dst: starHosts[rng.Intn(len(starHosts))]}
			st.sched.After(sim.Duration(rng.Intn(2000))*sim.Microsecond, func() { st.router.Handle(p) })
		}
		st.sched.Run()
		return st.log
	}
	indexed, hand := run(true), run(false)
	if len(indexed) != 200 {
		t.Fatalf("indexed star delivered %d of 200 packets", len(indexed))
	}
	if !reflect.DeepEqual(indexed, hand) {
		t.Fatalf("indexed and hand-built nodes forwarded differently:\n%q\n%q", indexed, hand)
	}
}
