package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Node is a network element with an address, a static routing table and an
// optional local transport delivery list. Packets arriving for the node's
// own address are handed to the registered local Handler for the packet's
// flow; everything else is forwarded out the port selected by destination
// address.
//
// Forwarding is a table walk, not a hash: a destination address maps to a
// dense slot and the slot indexes routes. A world compiled by topo shares
// one immutable address→slot index between all its nodes (SetIndex; slot =
// node index, so the table is as long as the world has nodes however
// sparse its addresses are). A hand-built node has no index and uses the
// address itself as the slot.
type Node struct {
	Addr   int
	index  []int32   // address -> slot, -1 = no such address; shared, read-only; nil = identity
	routes []*Port   // slot -> output port, nil = no route
	local  []binding // per-flow local transport endpoints, scanned in order
	catch  Handler   // fallback local handler
	drops  func(p *Packet, at sim.Time)
	sched  *sim.Scheduler
}

// binding is one local delivery entry. Hosts bind one flow (mapreduce
// nodes a handful), so a scan beats any keyed structure.
type binding struct {
	flow int
	h    Handler
}

// NewNode creates a node with the given address.
func NewNode(sched *sim.Scheduler, addr int) *Node {
	return &Node{Addr: addr, sched: sched}
}

// SetIndex installs the world's address→slot index and an empty routing
// table of the given number of slots. The index is shared by every node of
// the world and never written after it is built: index[a] is the slot of
// address a, or -1 when no node of the world has that address; addresses
// beyond the index have no slot either. Install it before the first
// AddRoute.
func (n *Node) SetIndex(index []int32, slots int) {
	n.index = index
	n.routes = make([]*Port, slots)
}

// slot maps a destination address to its routing-table slot, or -1.
func (n *Node) slot(addr int) int {
	if n.index == nil {
		return addr
	}
	if uint(addr) < uint(len(n.index)) {
		return int(n.index[addr])
	}
	return -1
}

// AddRoute directs traffic for dst out the given port. On an indexed node
// dst must be an address of the world; a hand-built node grows its table
// to hold the address.
func (n *Node) AddRoute(dst int, port *Port) {
	s := n.slot(dst)
	if s < 0 {
		panic(fmt.Sprintf("netsim: node %d: route to unknown address %d", n.Addr, dst))
	}
	if s >= len(n.routes) { // hand-built only: SetIndex sizes an indexed table
		n.routes = append(n.routes, make([]*Port, s+1-len(n.routes))...)
	}
	n.routes[s] = port
}

// Bind registers a local transport endpoint for a flow id. Packets
// addressed to this node with that flow id are delivered to h. Binding a
// flow that is already bound replaces its handler.
func (n *Node) Bind(flow int, h Handler) {
	for i := range n.local {
		if n.local[i].flow == flow {
			n.local[i].h = h
			return
		}
	}
	n.local = append(n.local, binding{flow, h})
}

// BindDefault registers a catch-all local handler used when no per-flow
// binding exists (e.g. sinks that absorb cross traffic).
func (n *Node) BindDefault(h Handler) { n.catch = h }

// OnLocalDrop installs an observer for packets that arrive for this node
// but have no handler; useful to catch mis-wired experiments early.
func (n *Node) OnLocalDrop(f func(p *Packet, at sim.Time)) { n.drops = f }

// Reset detaches the per-run wiring — local transport bindings, the
// catch-all handler and the local-drop observer — while keeping the
// routing table and index, which depend only on topology structure, and
// the binding list's capacity. A reset node is ready for the next run's
// Bind/BindDefault calls.
func (n *Node) Reset() {
	clear(n.local)
	n.local = n.local[:0]
	n.catch = nil
	n.drops = nil
}

// Handle implements Handler: deliver locally or forward.
func (n *Node) Handle(pkt *Packet) {
	if pkt.Dst == n.Addr {
		for i := range n.local {
			if n.local[i].flow == pkt.Flow {
				n.local[i].h.Handle(pkt)
				return
			}
		}
		if n.catch != nil {
			n.catch.Handle(pkt)
			return
		}
		if n.drops != nil {
			n.drops(pkt, n.sched.Now())
			return
		}
		panic(fmt.Sprintf("netsim: node %d: no handler for flow %d", n.Addr, pkt.Flow))
	}
	if s := n.slot(pkt.Dst); uint(s) < uint(len(n.routes)) {
		if port := n.routes[s]; port != nil {
			port.Handle(pkt)
			return
		}
	}
	panic(fmt.Sprintf("netsim: node %d: no route to %d", n.Addr, pkt.Dst))
}
