// Package topo is the declarative topology and scenario subsystem. A Spec
// describes a network as data — named nodes, links with per-direction rate,
// propagation delay and queueing discipline, and flow endpoint pairs — and
// Build wires it onto the netsim substrate (Node/Port/Queue/Link) driven by
// one sim.Scheduler, preserving the one-world-one-goroutine determinism
// contract: a built Network belongs to the goroutine that created its
// scheduler, and identical (Spec, seed) inputs produce identical packet
// dynamics.
//
// The paper's Figure-1 dumbbell is one instance of a Spec (see DumbbellSpec
// and the Dumbbell adapter); parking-lot chains, shared-access trees and
// heterogeneous-RTT meshes are others (see internal/topo/scenarios). The
// scenario registry (Register/Scenarios/Lookup) lets experiment drivers —
// internal/core sweeps and `paperexp -scenario` — iterate every registered
// topology and produce the same analysis.Report burstiness metrics the
// paper computes on the dumbbell.
package topo

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// DefaultQueueLimit is the DropTail capacity used when a direction's
// QueueSpec leaves Limit zero: a generous access-link buffer (the same
// 4096-packet default the dumbbell builder gives access links), so that a
// Spec only needs explicit limits where losses are supposed to happen.
const DefaultQueueLimit = 4096

// Spec is a declarative topology description. It is pure data: building it
// has no side effects until Build wires it onto a scheduler.
type Spec struct {
	// Name identifies the topology in errors and catalogs.
	Name string
	// Nodes lists every network element. Order matters only for
	// deterministic tie-breaking (address auto-assignment and route
	// computation walk nodes in declaration order).
	Nodes []NodeSpec
	// Links lists the bidirectional connections between named nodes.
	Links []LinkSpec
	// Flows lists transport endpoint pairs. The builder does not create
	// transports — it validates reachability and precomputes each pair's
	// base round-trip time; callers wire TCP/TFRC/probe endpoints onto the
	// flow's nodes (e.g. with tcp.NewPairFlow).
	Flows []FlowSpec
}

// NodeSpec declares one network element (host or router).
type NodeSpec struct {
	// Name must be unique within the Spec.
	Name string
	// Addr optionally pins the node's netsim address (the dumbbell uses
	// the paper's 1/2/1000+i/2000+i scheme). Zero means auto-assign the
	// lowest unused positive address in declaration order.
	Addr int
}

// Dir describes one direction of a link: the serialization rate, the
// propagation delay, and the queue feeding the wire.
type Dir struct {
	// Rate is the link capacity in bits per second. Must be positive on
	// the A→B direction; a zero-valued reverse Dir mirrors the forward
	// one (same rate/delay/queue spec, independent queue instance).
	Rate int64
	// Delay is the one-way propagation delay.
	Delay sim.Duration
	// Queue selects the buffering discipline (DropTail by default).
	Queue QueueSpec
	// Dynamics, when non-nil, makes the direction time-varying: the
	// builder starts a netsim.LinkModulator that retunes the link's
	// rate/delay on the declared schedule (Rate and Delay above are the
	// parameters before the first retune). See DynamicsSpec.
	Dynamics *DynamicsSpec
	// Loss, when non-nil, attaches a seeded Gilbert–Elliott link-layer
	// loss process to the direction's wire. See LossSpec.
	Loss *LossSpec
}

// QueueSpec selects and sizes a queueing discipline: Custom if set,
// otherwise DropTail(Limit). A RED bottleneck enters a Spec as a Custom
// queue its experiment builds and seeds.
type QueueSpec struct {
	// Limit is the DropTail capacity in packets. Zero means
	// DefaultQueueLimit.
	Limit int
	// Custom, when non-nil, uses a pre-built queue instance as-is. The
	// instance must not be shared between directions or links. Used to
	// carry experiment-owned queues (e.g. a seeded RED the caller also
	// inspects) into the topology.
	Custom netsim.Queue
}

// FlowKind selects the transport family a flow runs. It is a parametric
// field like link rates: structural matching (Program.structuralMatch,
// structuralKey) compares flows by endpoints only, so a cached world can
// be Reset from loss-based to delay-based flows without recompiling.
type FlowKind uint8

// Transport families.
const (
	// FlowTCP is the loss-based NewReno transport (the default).
	FlowTCP FlowKind = iota
	// FlowGCC is the delay-based GCC-style transport from internal/ratectl.
	FlowGCC
	// FlowRFT is the reliable-file-transfer application from
	// internal/apps/rft: back-to-back chunked transfers with NACK/
	// resend-entry client ACKs and cool-off-gated AIMD.
	FlowRFT

	flowKindCount // bound for validation
)

func (k FlowKind) String() string {
	switch k {
	case FlowTCP:
		return "tcp"
	case FlowGCC:
		return "gcc"
	case FlowRFT:
		return "rft"
	default:
		return "unknown"
	}
}

// FlowSpec declares a transport endpoint pair between two named nodes.
type FlowSpec struct {
	// Label is an optional human-readable tag for catalogs and errors.
	Label string
	// From and To name the sending and receiving nodes.
	From, To string
	// Kind selects the transport family (default FlowTCP).
	Kind FlowKind
}

// LinkSpec declares a bidirectional link between nodes A and B. AB
// describes the A→B direction; BA describes B→A and, when left zero
// (Rate == 0), mirrors AB with an independent queue instance.
type LinkSpec struct {
	A, B string
	AB   Dir
	BA   Dir
}

// mirrored returns the effective reverse direction: BA when set, else AB
// without the Custom queue instance (a queue must never be shared between
// two ports).
func (l LinkSpec) mirrored() Dir {
	if l.BA.Rate != 0 {
		return l.BA
	}
	d := l.AB
	d.Queue.Custom = nil
	return d
}

// validate checks the spec's internal consistency and returns a clear
// error naming the topology and the offending element.
func (s Spec) validate() error {
	name := s.Name
	if name == "" {
		name = "topology"
	}
	if len(s.Nodes) == 0 {
		return fmt.Errorf("topo: %s has no nodes", name)
	}
	nodes := make(map[string]bool, len(s.Nodes))
	addrs := make(map[int]string, len(s.Nodes))
	for _, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("topo: %s has an unnamed node", name)
		}
		if nodes[n.Name] {
			return fmt.Errorf("topo: %s declares node %q twice", name, n.Name)
		}
		nodes[n.Name] = true
		if n.Addr < 0 {
			return fmt.Errorf("topo: %s node %q has negative address %d", name, n.Name, n.Addr)
		}
		if n.Addr != 0 {
			if prev, dup := addrs[n.Addr]; dup {
				return fmt.Errorf("topo: %s nodes %q and %q share address %d", name, prev, n.Name, n.Addr)
			}
			addrs[n.Addr] = n.Name
		}
	}
	seen := make(map[[2]string]bool, 2*len(s.Links))
	for i, l := range s.Links {
		if !nodes[l.A] || !nodes[l.B] {
			return fmt.Errorf("topo: %s link %d connects unknown node %q–%q", name, i, l.A, l.B)
		}
		if l.A == l.B {
			return fmt.Errorf("topo: %s link %d is a self-loop on %q", name, i, l.A)
		}
		if seen[[2]string{l.A, l.B}] || seen[[2]string{l.B, l.A}] {
			return fmt.Errorf("topo: %s has parallel links between %q and %q", name, l.A, l.B)
		}
		seen[[2]string{l.A, l.B}] = true
		if err := validateLinkParams(name, l); err != nil {
			return err
		}
	}
	for i, f := range s.Flows {
		if !nodes[f.From] || !nodes[f.To] {
			return fmt.Errorf("topo: %s flow %d references unknown node %q→%q", name, i, f.From, f.To)
		}
		if f.From == f.To {
			return fmt.Errorf("topo: %s flow %d loops on node %q", name, i, f.From)
		}
		if f.Kind >= flowKindCount {
			return fmt.Errorf("topo: %s flow %d has unknown kind %d", name, i, f.Kind)
		}
	}
	return nil
}

// validateLinkParams checks one link's parametric fields — rates, delays,
// queue limits, dynamics and loss parameters. It is the
// half of validation a Reset must repeat (parameters may change between
// resets); the structural half is covered by Program.structuralMatch, so
// the reset path skips validate's map-building entirely.
func validateLinkParams(name string, l LinkSpec) error {
	if l.AB.Rate <= 0 {
		return fmt.Errorf("topo: %s link %q→%q needs a positive rate", name, l.A, l.B)
	}
	// A reverse direction is either fully absent (mirrors AB) or has
	// its own rate; a BA with delay/queue but no rate would be
	// silently discarded, hiding an intended asymmetric link.
	if l.BA.Rate == 0 &&
		(l.BA.Delay != 0 || l.BA.Queue.Limit != 0 || l.BA.Queue.Custom != nil ||
			l.BA.Dynamics != nil || l.BA.Loss != nil) {
		return fmt.Errorf("topo: %s link %q→%q reverse direction sets delay/queue/dynamics but no rate", name, l.B, l.A)
	}
	for _, d := range [2]struct {
		dir  Dir
		a, b string
	}{{l.AB, l.A, l.B}, {l.mirrored(), l.B, l.A}} {
		if d.dir.Rate <= 0 {
			return fmt.Errorf("topo: %s link %q→%q needs a positive rate", name, d.a, d.b)
		}
		if d.dir.Delay < 0 {
			return fmt.Errorf("topo: %s link %q→%q has negative delay", name, d.a, d.b)
		}
		if d.dir.Queue.Limit < 0 {
			return fmt.Errorf("topo: %s link %q→%q has negative queue limit", name, d.a, d.b)
		}
		if dyn := d.dir.Dynamics; dyn != nil {
			if err := dyn.validate(); err != nil {
				return fmt.Errorf("topo: %s link %q→%q: %w", name, d.a, d.b, err)
			}
		}
		if ls := d.dir.Loss; ls != nil {
			if err := ls.params().Validate(); err != nil {
				return fmt.Errorf("topo: %s link %q→%q: %w", name, d.a, d.b, err)
			}
		}
	}
	return nil
}

// validateParams re-checks the parametric half of a spec against a
// structurally verified shape: everything Reset allows to change. Unlike
// validate it allocates nothing, which matters on the per-replication
// reset path.
func (s Spec) validateParams() error {
	name := s.Name
	if name == "" {
		name = "topology"
	}
	for _, l := range s.Links {
		if err := validateLinkParams(name, l); err != nil {
			return err
		}
	}
	return nil
}
