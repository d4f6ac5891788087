package topo_test

import (
	"math"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// specBytes decodes a topo.Spec from fuzz input one byte at a time (zeros
// once the input runs out). Names come from a six-entry alphabet that
// includes the empty string, and every number is a small signed value, so
// short inputs reach duplicate and unknown nodes, self-loops, parallel
// links, unroutable flows and out-of-range parameters as readily as valid
// worlds.
type specBytes []byte

func (b *specBytes) byte() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

func (b *specBytes) small() int { return int(int8(b.byte())) }

func (b *specBytes) name() string {
	return [...]string{"", "a", "b", "c", "d", "e"}[b.byte()%6]
}

// prob is a probability-like float: mostly hundredths around [0, 1], with
// NaN and +Inf reachable.
func (b *specBytes) prob() float64 {
	switch v := b.small(); v {
	case -128:
		return math.NaN()
	case 127:
		return math.Inf(1)
	default:
		return float64(v) / 100
	}
}

func (b *specBytes) dir() topo.Dir {
	d := topo.Dir{
		Rate:  int64(b.small()) * 100_000,
		Delay: sim.Duration(b.small()) * sim.Millisecond,
		Queue: topo.QueueSpec{Limit: b.small()},
	}
	opts := b.byte()
	if opts&2 != 0 {
		d.Loss = &topo.LossSpec{PGB: b.prob(), PBG: b.prob(), KGood: b.prob(), KBad: b.prob()}
	}
	if opts&4 != 0 {
		dyn := &topo.DynamicsSpec{Loop: sim.Duration(b.small()) * sim.Millisecond}
		kinds := b.byte()
		if kinds&1 != 0 {
			dyn.Steps = []netsim.RateStep{}
			for n := b.byte() % 4; n > 0; n-- {
				dyn.Steps = append(dyn.Steps, netsim.RateStep{At: sim.Duration(b.small()) * sim.Millisecond,
					Rate: int64(b.small()) * 100_000, Delay: sim.Duration(b.small()) * sim.Millisecond})
			}
		}
		if kinds&4 != 0 {
			dyn.Walk = &topo.WalkSpec{Min: int64(b.small()) * 100_000, Max: int64(b.small()) * 100_000,
				Factor: 1 + b.prob(), Interval: sim.Duration(b.small()) * sim.Millisecond}
		}
		d.Dynamics = dyn
	}
	return d
}

func (b *specBytes) spec() topo.Spec {
	s := topo.Spec{Name: "fuzz"}
	for n := b.byte() % 7; n > 0; n-- {
		// The shift takes pinned addresses past Compile's address limit.
		s.Nodes = append(s.Nodes, topo.NodeSpec{Name: b.name(), Addr: b.small() << (b.byte() % 24)})
	}
	for n := b.byte() % 7; n > 0; n-- {
		s.Links = append(s.Links, topo.LinkSpec{A: b.name(), B: b.name(), AB: b.dir(), BA: b.dir()})
	}
	for n := b.byte() % 4; n > 0; n-- {
		s.Flows = append(s.Flows, topo.FlowSpec{From: b.name(), To: b.name(), Kind: topo.FlowKind(b.byte() % 5)})
	}
	return s
}

// FuzzCompile: Compile never panics on a spec decoded from arbitrary
// bytes, and a program it returns instantiates — onto a fresh scheduler,
// modulators started — without panicking either.
func FuzzCompile(f *testing.F) {
	f.Add([]byte{})
	// a–b–c chain, auto addresses, one mirrored 1 Mbps link pair, flow a→c.
	f.Add([]byte{3, 1, 0, 0, 2, 0, 0, 3, 0, 0, 2, 1, 2, 10, 1, 0, 0, 0, 0, 0, 0, 2, 3, 10, 1, 0, 0, 0, 0, 0, 0, 1, 1, 3, 0})
	// One a–b link with loss and a two-step schedule; c unreachable.
	f.Add([]byte{3, 1, 0, 0, 2, 0, 0, 3, 0, 0, 1, 1, 2, 10, 1, 50, 6, 1, 20, 0, 50, 0, 1, 2, 0, 5, 0, 10, 20, 0, 0, 0, 0, 0, 0, 1, 1, 2, 0})
	// Refused: duplicate node, pinned address above the limit, self-loop,
	// unknown flow kind.
	f.Add([]byte{2, 1, 0, 0, 1, 0, 0})
	f.Add([]byte{1, 1, 100, 23})
	f.Add([]byte{2, 1, 0, 0, 2, 0, 0, 1, 1, 1, 10, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{2, 1, 0, 0, 2, 0, 0, 1, 1, 2, 10, 0, 0, 0, 0, 0, 0, 0, 1, 1, 2, 4})
	// A non-nil, empty step schedule: once an index panic in validation.
	f.Add([]byte("B10021092001200070000000001"))
	f.Fuzz(func(t *testing.T, data []byte) {
		b := specBytes(data)
		p, err := topo.Compile(b.spec())
		if err != nil {
			return
		}
		// An unroutable flow is Instantiate's to refuse; only a panic fails.
		_, _ = p.Instantiate(sim.NewScheduler(), 1)
	})
}
