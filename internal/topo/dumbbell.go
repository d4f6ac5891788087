package topo

import (
	"fmt"
	"strconv"

	"repro/internal/exp"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Dumbbell node-naming scheme used by DumbbellSpec.
const (
	leftRouterName  = "L"
	rightRouterName = "R"
)

func senderName(i int) string   { return fmt.Sprintf("s%d", i) }
func receiverName(i int) string { return fmt.Sprintf("r%d", i) }

// DumbbellSpec expresses netsim.DumbbellConfig — the paper's Figure-1
// topology — as a declarative Spec: two routers joined by the bottleneck,
// one sender and one receiver node per pair at the netsim.SenderAddr /
// ReceiverAddr addresses, each behind an access link carrying half the
// pair's access delay per side.
func DumbbellSpec(cfg netsim.DumbbellConfig) Spec {
	s := Spec{Name: "dumbbell"}
	s.Nodes = append(s.Nodes,
		NodeSpec{Name: leftRouterName, Addr: 1},
		NodeSpec{Name: rightRouterName, Addr: 2},
	)

	fwd := QueueSpec{Custom: cfg.Queue, Limit: cfg.Buffer}
	// Generous reverse buffer: ACKs should not drop.
	rev := QueueSpec{Limit: max(cfg.Buffer, 1024)}
	s.Links = append(s.Links, LinkSpec{
		A: leftRouterName, B: rightRouterName,
		AB: Dir{Rate: cfg.BottleneckRate, Delay: cfg.BottleneckDelay, Queue: fwd},
		BA: Dir{Rate: cfg.BottleneckRate, Delay: cfg.BottleneckDelay, Queue: rev},
	})

	for i, delay := range cfg.AccessDelays {
		half := delay / 2
		s.Nodes = append(s.Nodes,
			NodeSpec{Name: senderName(i), Addr: netsim.SenderAddr(i)},
			NodeSpec{Name: receiverName(i), Addr: netsim.ReceiverAddr(i)},
		)
		access := Dir{Rate: cfg.AccessRate, Delay: half, Queue: QueueSpec{Limit: DefaultQueueLimit}}
		s.Links = append(s.Links,
			LinkSpec{A: senderName(i), B: leftRouterName, AB: access},
			LinkSpec{A: rightRouterName, B: receiverName(i), AB: access},
		)
		s.Flows = append(s.Flows, FlowSpec{
			Label: fmt.Sprintf("pair%d", i),
			From:  senderName(i),
			To:    receiverName(i),
		})
	}
	return s
}

// Dumbbell is the topo-built dumbbell with the accessor surface the
// experiment runners use: the shared bottleneck ports for drop observation
// and noise injection, the routers for sink binding, and per-pair endpoint
// nodes for transport wiring.
type Dumbbell struct {
	// Net is the underlying generic network.
	Net *Network
	// Sched is the world's scheduler.
	Sched *sim.Scheduler

	// LeftRouter aggregates senders and owns the forward bottleneck port;
	// RightRouter aggregates receivers and owns the reverse one.
	LeftRouter  *netsim.Node
	RightRouter *netsim.Node

	// Forward is the left→right bottleneck port (where data-direction
	// drops happen); Reverse is right→left.
	Forward *netsim.Port
	Reverse *netsim.Port
}

// NewDumbbell builds DumbbellSpec(cfg) onto sched — the arena's (reset)
// scheduler — through the arena's world cache (see NetworkIn): the
// dumbbell's compiled program and instantiated world are reused across
// runs on the same arena, reset instead of rebuilt. The Spec itself is
// cached per pair count too, retuned in place instead of re-derived — a
// dumbbell's structure is a pure function of how many pairs it has, and
// rebuilding the node-name strings and link slices was most of what a
// warm run still paid. Dumbbells with a Custom queue are never cached
// (neither spec nor world). It panics on an invalid config: a malformed
// dumbbell is a programming error in the caller.
func NewDumbbell(a *exp.Arena, sched *sim.Scheduler, cfg netsim.DumbbellConfig) *Dumbbell {
	if cfg.Buffer <= 0 && cfg.Queue == nil {
		panic("topo: dumbbell needs a buffer size or an explicit queue")
	}
	if len(cfg.AccessDelays) == 0 {
		panic("topo: dumbbell needs at least one endpoint pair")
	}
	var spec Spec
	if cfg.Queue == nil {
		key := "topo/dumbspec/" + strconv.Itoa(len(cfg.AccessDelays))
		if v, ok := a.Scratch(key).(*Spec); ok {
			retuneDumbbellSpec(v, cfg)
			spec = *v
		} else {
			spec = DumbbellSpec(cfg)
			s := spec
			a.SetScratch(key, &s)
		}
	} else {
		spec = DumbbellSpec(cfg)
	}
	net, err := NetworkIn(a, sched, spec, 0)
	if err != nil {
		panic(fmt.Sprintf("topo: dumbbell spec did not build: %v", err))
	}
	return WrapDumbbell(net)
}

// retuneDumbbellSpec rewrites the parametric fields of a cached dumbbell
// spec in place to match cfg, exactly as DumbbellSpec would set them:
// bottleneck rate/delay/buffer, the generous reverse buffer, and the
// per-pair access rate and delays. The structure — nodes, link endpoints
// and order, flow pairs, queue discipline kinds — is untouched, which is
// precisely the invariant Network.Reset requires. The caller guarantees
// cfg has no Custom queue and the same pair count the spec was built
// with. The spec's slices may be aliased by the cached world
// (Network.Reset re-adopts the spec each run), so this never reslices,
// only overwrites Dir values.
func retuneDumbbellSpec(s *Spec, cfg netsim.DumbbellConfig) {
	rev := QueueSpec{Limit: max(cfg.Buffer, 1024)}
	s.Links[0].AB = Dir{Rate: cfg.BottleneckRate, Delay: cfg.BottleneckDelay, Queue: QueueSpec{Limit: cfg.Buffer}}
	s.Links[0].BA = Dir{Rate: cfg.BottleneckRate, Delay: cfg.BottleneckDelay, Queue: rev}
	for i, delay := range cfg.AccessDelays {
		access := Dir{Rate: cfg.AccessRate, Delay: delay / 2, Queue: QueueSpec{Limit: DefaultQueueLimit}}
		s.Links[1+2*i].AB = access
		s.Links[2+2*i].AB = access
	}
}

// WrapDumbbell wraps a network built from a DumbbellSpec in the dumbbell
// accessor surface. It panics if the network lacks the dumbbell's router
// nodes.
func WrapDumbbell(net *Network) *Dumbbell {
	return &Dumbbell{
		Net:         net,
		Sched:       net.Sched,
		LeftRouter:  net.Node(leftRouterName),
		RightRouter: net.Node(rightRouterName),
		Forward:     net.Port(leftRouterName, rightRouterName),
		Reverse:     net.Port(rightRouterName, leftRouterName),
	}
}

// AttachPool installs the world's packet freelist on every port of the
// dumbbell (see Network.AttachPool).
func (d *Dumbbell) AttachPool(pool *netsim.PacketPool) { d.Net.AttachPool(pool) }

// SenderNode returns the sender-side endpoint node for pair i.
func (d *Dumbbell) SenderNode(i int) *netsim.Node { return d.Net.FlowSender(i) }

// ReceiverNode returns the receiver-side endpoint node for pair i.
func (d *Dumbbell) ReceiverNode(i int) *netsim.Node { return d.Net.FlowReceiver(i) }
