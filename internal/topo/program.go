package topo

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/exp"
	"repro/internal/lossmodel"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// progDir is one directed link of a compiled program: its endpoints, the
// compile-time Dir (instances may retune the parameters via Reset) and the
// per-direction seed tag that keys every random stream the direction owns.
type progDir struct {
	e   edge
	dir Dir
	tag int64 // dirSeed = sim.SubSeed(buildSeed, tag)
}

// progRoute is one precomputed routing-table entry: install on node src a
// route for destination address dst leaving on the directed link out.
type progRoute struct {
	src string
	dst int
	out edge
}

// Program is a compiled topology: everything about a Spec that does not
// depend on the build seed or on runtime parameters — validated structure,
// assigned addresses, directed-port creation order with per-direction seed
// tags, and the full shortest-path routing solution as a replayable install
// list. A Program is immutable after Compile and may be shared by any
// number of instantiated Networks (the addr and next maps and the
// address→slot index are handed to instances read-only).
//
// The split exists for replication sweeps: Compile once per structural
// shape, Instantiate to stamp out a world, and Network.Reset to rewind the
// same world for the next replication without re-running validation, BFS
// or the parent-chain walks — the dominant build cost for the paper's
// multi-node scenarios.
type Program struct {
	spec   Spec
	addr   map[string]int  // immutable; shared with every instance
	index  []int32         // address -> node index, -1 = unassigned; immutable, shared by every node of every instance
	dirs   []progDir       // directed-port creation order (A→B then B→A per link)
	next   map[edge]string // immutable next-hop solution; shared with instances
	routes []progRoute     // AddRoute replay list, BFS discovery order
}

// Compile validates spec and precomputes its seed-independent layout:
// addresses (explicit pins first, then lowest-unused in declaration order),
// the directed-port order with per-direction seed tags, and shortest-path
// routes with ties broken by link declaration order — the same
// deterministic solution Build has always installed. Flow reachability is
// checked at Instantiate time (with the exact error Build reports), since
// it falls out of the RTT computation.
func Compile(spec Spec) (*Program, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	p := &Program{
		spec: spec,
		addr: make(map[string]int, len(spec.Nodes)),
		dirs: make([]progDir, 0, 2*len(spec.Links)),
	}

	used := make(map[int]bool, len(spec.Nodes))
	for _, ns := range spec.Nodes {
		if ns.Addr != 0 {
			p.addr[ns.Name] = ns.Addr
			used[ns.Addr] = true
		}
	}
	nextAddr := 1
	for _, ns := range spec.Nodes {
		if ns.Addr == 0 {
			for used[nextAddr] {
				nextAddr++
			}
			p.addr[ns.Name] = nextAddr
			used[nextAddr] = true
		}
	}

	if err := p.buildIndex(); err != nil {
		return nil, err
	}

	for i, l := range spec.Links {
		p.dirs = append(p.dirs,
			progDir{e: edge{l.A, l.B}, dir: l.AB, tag: int64(2 * i)},
			progDir{e: edge{l.B, l.A}, dir: l.mirrored(), tag: int64(2*i + 1)},
		)
	}

	p.computeRoutes()
	return p, nil
}

// maxAddr is the largest node address Compile accepts. Every node of a
// world forwards through one shared address→slot index with an int32 entry
// per address up to the largest one in use, so the bound caps what a spec —
// user input — can make Compile allocate at 4 MB; a million-node address
// space is far beyond any world this simulator can run.
const maxAddr = 1 << 20

// buildIndex derives the address→slot index from the assigned addresses:
// slot = the node's position in Spec.Nodes, -1 for an address no node
// holds. Sparse address plans (the dumbbell's 1, 2, 1000+i, 2000+i) thus
// cost every node a routing table of one pointer per node, not per
// address.
func (p *Program) buildIndex() error {
	top := 0
	for _, ns := range p.spec.Nodes {
		a := p.addr[ns.Name]
		if a > maxAddr {
			return fmt.Errorf("topo: %s node %q has address %d, above the limit %d", p.spec.Name, ns.Name, a, maxAddr)
		}
		top = max(top, a)
	}
	p.index = make([]int32, top+1)
	for i := range p.index {
		p.index[i] = -1
	}
	for i, ns := range p.spec.Nodes {
		p.index[p.addr[ns.Name]] = int32(i)
	}
	return nil
}

// computeRoutes solves static shortest-path routing for the program:
// breadth-first per source on dense node indices, ties broken by link
// declaration order. Instead of installing into live nodes it records the
// next-hop map plus an ordered AddRoute replay list, so every Instantiate
// re-installs the identical table with map lookups only.
func (p *Program) computeRoutes() {
	nn := len(p.spec.Nodes)
	names := make([]string, nn)
	index := make(map[string]int, nn)
	for i, ns := range p.spec.Nodes {
		names[i] = ns.Name
		index[ns.Name] = i
	}

	adj := make([][]int, nn)
	for _, l := range p.spec.Links {
		a, b := index[l.A], index[l.B]
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}

	p.next = make(map[edge]string, nn*(nn-1))
	p.routes = make([]progRoute, 0, nn*(nn-1))
	parent := make([]int, nn)
	queue := make([]int, 0, nn)
	for src := 0; src < nn; src++ {
		for i := range parent {
			parent[i] = -1
		}
		parent[src] = src
		queue = append(queue[:0], src)
		for head := 0; head < len(queue); head++ {
			for _, nb := range adj[queue[head]] {
				if parent[nb] < 0 {
					parent[nb] = queue[head]
					queue = append(queue, nb)
				}
			}
		}
		srcName := names[src]
		for _, dst := range queue[1:] {
			hop := dst
			for parent[hop] != src {
				hop = parent[hop]
			}
			p.next[edge{srcName, names[dst]}] = names[hop]
			p.routes = append(p.routes, progRoute{
				src: srcName,
				dst: p.addr[names[dst]],
				out: edge{srcName, names[hop]},
			})
		}
	}
}

// Spec returns the compiled spec.
func (p *Program) Spec() Spec { return p.spec }

// Resettable reports whether instances of this program support Reset: no
// direction may use a Custom queue, since an opaque Queue cannot be
// rewound to its just-built state.
func (p *Program) Resettable() bool {
	for _, pd := range p.dirs {
		if pd.dir.Queue.Custom != nil {
			return false
		}
	}
	return true
}

// Instantiate stamps the program out onto a scheduler: fresh nodes, ports,
// queues, loss chains and modulators, seeded exactly as Build(sched,
// p.Spec(), seed) would seed them, with the precomputed routing solution
// replayed instead of recomputed. The error cases are Build's (nil
// scheduler, unroutable flow).
func (p *Program) Instantiate(sched *sim.Scheduler, seed int64) (*Network, error) {
	if sched == nil {
		return nil, fmt.Errorf("topo: Instantiate requires a scheduler")
	}
	n := &Network{
		Sched: sched,
		spec:  p.spec,
		prog:  p,
		nodes: make(map[string]*netsim.Node, len(p.spec.Nodes)),
		addr:  p.addr,
		ports: make(map[edge]*netsim.Port, len(p.dirs)),
		dirs:  make(map[edge]Dir, len(p.dirs)),
		edges: make([]edge, 0, len(p.dirs)),
		next:  p.next,
	}
	for _, ns := range p.spec.Nodes {
		nd := netsim.NewNode(sched, p.addr[ns.Name])
		nd.SetIndex(p.index, len(p.spec.Nodes))
		n.nodes[ns.Name] = nd
	}

	// Ports in compiled order (A→B then B→A per link), with the identical
	// seed derivation Build uses: the queue consumes the direction seed
	// directly and the loss chain and modulator draw SubSeed children of it.
	for _, pd := range p.dirs {
		dirSeed := sim.SubSeed(seed, pd.tag)
		q := buildQueue(pd.dir.Queue, dirSeed)
		link := netsim.NewLink(pd.dir.Rate, pd.dir.Delay, n.nodes[pd.e.to])
		port := netsim.NewPort(sched, q, link)
		if ls := pd.dir.Loss; ls != nil {
			ge := lossmodel.NewGilbertElliott(ls.params(), sim.NewRand(sim.SubSeed(dirSeed, 1)))
			port.LinkLoss = ge.Lost
			if n.ges == nil {
				n.ges = make(map[edge]*lossmodel.GilbertElliott)
			}
			n.ges[pd.e] = ge
		}
		if dyn := pd.dir.Dynamics; dyn != nil {
			if n.mods == nil {
				n.mods = make(map[edge]*netsim.LinkModulator)
			}
			n.mods[pd.e] = buildDynamics(sched, link, dyn, sim.SubSeed(dirSeed, 2))
		}
		n.ports[pd.e] = port
		n.dirs[pd.e] = pd.dir
		n.edges = append(n.edges, pd.e)
	}

	for _, r := range p.routes {
		n.nodes[r.src].AddRoute(r.dst, n.ports[r.out])
	}

	if err := n.computeRTTs(); err != nil {
		return nil, err
	}
	return n, nil
}

// computeRTTs fills the per-flow base RTTs from the current direction
// delays, doubling as the flow reachability check. Shared by Instantiate
// and Reset; the slice is reused across resets.
func (n *Network) computeRTTs() error {
	flows := n.spec.Flows
	if cap(n.rtts) >= len(flows) {
		n.rtts = n.rtts[:len(flows)]
	} else {
		n.rtts = make([]sim.Duration, len(flows))
	}
	for i, f := range flows {
		fwd, err := n.pathDelay(f.From, f.To)
		if err != nil {
			return fmt.Errorf("topo: %s flow %d (%s): %w", n.spec.Name, i, flowName(f), err)
		}
		rev, err := n.pathDelay(f.To, f.From)
		if err != nil {
			return fmt.Errorf("topo: %s flow %d (%s): %w", n.spec.Name, i, flowName(f), err)
		}
		n.rtts[i] = fwd + rev
	}
	return nil
}

// Reset rewinds the network to the state Build(sched, spec, seed) would
// produce on a freshly reset scheduler, without reallocating nodes, ports
// or queues and without recomputing routes. The caller must reset the
// owning scheduler first (pending events are cancelled wholesale there;
// packets riding scheduler events as delivery arguments are abandoned to
// the garbage collector, while queued packets recycle into the ports'
// pool).
//
// spec must match the compiled program structurally — same nodes (names
// and address pins), same links (endpoints, order and queue discipline
// kind per direction, Custom queues excluded entirely) and same flow
// endpoint pairs. Everything parametric may differ between resets: rates,
// delays, queue limits, RED tunables, loss parameters and presence,
// dynamics, flow labels. That asymmetry is what replication sweeps need —
// each replication perturbs delays or buffers but never the shape.
func (n *Network) Reset(spec Spec, seed int64) error {
	p := n.prog
	if p == nil {
		return fmt.Errorf("topo: network has no compiled program")
	}
	// Structure first (allocation-free against the compiled shape), then
	// only the parametric half of validation — the structural half is
	// implied by matching the already-validated compiled spec.
	if err := p.structuralMatch(spec); err != nil {
		return err
	}
	if err := spec.validateParams(); err != nil {
		return err
	}
	n.spec = spec

	// Rewind each direction in creation order, reproducing Instantiate's
	// seed derivation and event ordering: the queue reseeds on the
	// direction seed, the loss chain on SubSeed(dirSeed, 1), and the
	// modulator — whose Start is the only event scheduled during a build —
	// is recreated on SubSeed(dirSeed, 2) after the link's rate and delay
	// are restored, so a reset world's event sequence numbers match a
	// fresh build's exactly.
	di := 0
	for _, l := range spec.Links {
		for _, d := range [2]Dir{l.AB, l.mirrored()} {
			pd := p.dirs[di]
			di++
			e := pd.e
			dirSeed := sim.SubSeed(seed, pd.tag)
			port := n.ports[e]
			port.Reset()
			limit := d.Queue.Limit
			if limit <= 0 {
				limit = DefaultQueueLimit
			}
			if r := d.Queue.RED; r != nil {
				port.Queue.(*netsim.RED).Reset(redConfig(r, limit), dirSeed)
			} else {
				port.Queue.(*netsim.DropTail).Reset(limit)
			}
			port.Link.Rate = d.Rate
			port.Link.Delay = d.Delay
			if ls := d.Loss; ls != nil {
				geSeed := sim.SubSeed(dirSeed, 1)
				ge := n.ges[e]
				if ge != nil {
					ge.Reset(ls.params(), geSeed)
				} else {
					ge = lossmodel.NewGilbertElliott(ls.params(), sim.NewRand(geSeed))
					if n.ges == nil {
						n.ges = make(map[edge]*lossmodel.GilbertElliott)
					}
					n.ges[e] = ge
				}
				port.LinkLoss = ge.Lost
			} else {
				delete(n.ges, e)
			}
			if dyn := d.Dynamics; dyn != nil {
				if n.mods == nil {
					n.mods = make(map[edge]*netsim.LinkModulator)
				}
				n.mods[e] = buildDynamics(n.Sched, port.Link, dyn, sim.SubSeed(dirSeed, 2))
			} else {
				delete(n.mods, e)
			}
			n.dirs[e] = d
		}
	}

	for _, ns := range spec.Nodes {
		n.nodes[ns.Name].Reset()
	}
	return n.computeRTTs()
}

// structuralMatch reports whether spec shares the program's structure: the
// parts Reset cannot change because they are baked into allocated objects
// (node identities and addresses, link endpoints and order, queue
// discipline types) or into the precomputed routing solution (node set,
// adjacency, flow endpoints).
func (p *Program) structuralMatch(spec Spec) error {
	old := p.spec
	if len(spec.Nodes) != len(old.Nodes) {
		return fmt.Errorf("topo: reset: %d nodes, program has %d", len(spec.Nodes), len(old.Nodes))
	}
	for i, ns := range spec.Nodes {
		if ns != old.Nodes[i] {
			return fmt.Errorf("topo: reset: node %d is %+v, program has %+v", i, ns, old.Nodes[i])
		}
	}
	if len(spec.Links) != len(old.Links) {
		return fmt.Errorf("topo: reset: %d links, program has %d", len(spec.Links), len(old.Links))
	}
	for i, l := range spec.Links {
		ol := old.Links[i]
		if l.A != ol.A || l.B != ol.B {
			return fmt.Errorf("topo: reset: link %d is %s—%s, program has %s—%s", i, l.A, l.B, ol.A, ol.B)
		}
		nd := [2]Dir{l.AB, l.mirrored()}
		od := [2]Dir{ol.AB, ol.mirrored()}
		for j := range nd {
			if nd[j].Queue.Custom != nil || od[j].Queue.Custom != nil {
				return fmt.Errorf("topo: reset: link %d has a Custom queue; custom disciplines cannot be rewound", i)
			}
			if (nd[j].Queue.RED != nil) != (od[j].Queue.RED != nil) {
				return fmt.Errorf("topo: reset: link %d changes queue discipline kind", i)
			}
		}
	}
	if len(spec.Flows) != len(old.Flows) {
		return fmt.Errorf("topo: reset: %d flows, program has %d", len(spec.Flows), len(old.Flows))
	}
	for i, f := range spec.Flows {
		of := old.Flows[i]
		if f.From != of.From || f.To != of.To {
			return fmt.Errorf("topo: reset: flow %d is %s→%s, program has %s→%s", i, f.From, f.To, of.From, of.To)
		}
	}
	return nil
}

// structuralKey fingerprints the parts of a spec that Reset requires to
// match — exactly the fields structuralMatch compares. Two specs with the
// same key describe interchangeable world shapes (possibly with different
// parameters), so the key indexes the per-arena world cache.
func structuralKey(spec Spec) string {
	var b strings.Builder
	b.Grow(32 * (len(spec.Nodes) + len(spec.Links) + len(spec.Flows)))
	b.WriteString(spec.Name)
	for _, ns := range spec.Nodes {
		b.WriteByte(';')
		b.WriteString(ns.Name)
		b.WriteByte('=')
		b.WriteString(strconv.Itoa(ns.Addr))
	}
	b.WriteString("|L")
	for _, l := range spec.Links {
		b.WriteByte(';')
		b.WriteString(l.A)
		b.WriteByte('~')
		b.WriteString(l.B)
		for _, d := range [2]Dir{l.AB, l.mirrored()} {
			switch {
			case d.Queue.Custom != nil:
				b.WriteByte('c')
			case d.Queue.RED != nil:
				b.WriteByte('r')
			default:
				b.WriteByte('d')
			}
		}
	}
	b.WriteString("|F")
	for _, f := range spec.Flows {
		b.WriteByte(';')
		b.WriteString(f.From)
		b.WriteByte('>')
		b.WriteString(f.To)
	}
	return b.String()
}

// NetworkIn returns a world for spec through the arena's world cache: it
// keeps one compiled-and-instantiated Network per structural shape in the
// arena's scratch and Resets it for each subsequent run, so a replication
// sweep pays validation, BFS and allocation once per worker instead of
// once per replication. sched must be the arena's (reset) scheduler.
// Worlds whose spec uses Custom queues are never cached — they are built
// every time, since an opaque queue cannot be rewound. Runners reach this
// through World.Network; a one-off world that wants no cache calls Build.
func NetworkIn(a *exp.Arena, sched *sim.Scheduler, spec Spec, seed int64) (*Network, error) {
	key := "topo/" + structuralKey(spec)
	if v := a.Scratch(key); v != nil {
		if net, ok := v.(*Network); ok && net.Sched == sched {
			if err := net.Reset(spec, seed); err == nil {
				return net, nil
			}
		}
	}
	net, err := Build(sched, spec, seed)
	if err != nil {
		return nil, err
	}
	if net.prog.Resettable() {
		a.SetScratch(key, net)
	}
	return net, nil
}
