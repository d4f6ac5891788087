package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/lossmodel"
	"repro/internal/netsim"
	"repro/internal/ratectl"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/topo"
	"repro/internal/trace"
)

// An isolated driver calls one layer's public API on a fixed program — no
// seed, no other layer above it — and reports host time per operation.
// Its number moves only when that layer's code moves, which is what lets
// a change in an end-to-end metric be pinned on a layer.

// driver runs one program: it returns how many operations the program
// performed and how long they took. A driver that times the whole program
// returns elapsed 0 and lets timeDriver use the wall clock.
type driver struct {
	name, unit string
	scale      float64 // ns per reported unit: 1 for ns, 1e3 for µs
	prep       func() func() (ops int, elapsed time.Duration)
}

// timeDriver runs the program once untimed, then for the budget (at least
// five times), and returns the median time per operation.
func timeDriver(d driver, budget time.Duration) (perOp float64, ops, reps int) {
	run := d.prep()
	run()
	var xs []float64
	for start := time.Now(); len(xs) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		n, el := run()
		if el == 0 {
			el = time.Since(t0)
		}
		xs = append(xs, float64(el.Nanoseconds())/float64(n)/d.scale)
		ops = n
	}
	return median(xs), ops, len(xs)
}

func runDrivers(ms *metricSet, budget time.Duration) {
	for _, d := range drivers {
		v, ops, reps := timeDriver(d, budget)
		ms.add(d.name, v, d.unit, fmt.Sprintf("isolated driver, host time; median of %d reps of %d ops", reps, ops))
	}
}

func must(err error) {
	if err != nil {
		panic(fmt.Sprintf("bench: isolated driver: %v", err))
	}
}

// whole adapts a program that is timed from outside.
func whole(run func() int) func() (int, time.Duration) {
	return func() (int, time.Duration) { return run(), 0 }
}

var drivers = []driver{
	{"sim.heap_ns_per_op", "ns", 1, func() func() (int, time.Duration) {
		// Arm, cancel and fire inside the current 65 µs wheel tick, where
		// every entry goes straight to the 4-ary heap: each step fires,
		// cancels the guard armed by the previous step (a lazy tombstone)
		// and arms a new one.
		s := sim.NewScheduler()
		noop := func() {}
		return whole(func() int {
			s.Reset()
			const steps = 50_000
			var guard sim.Timer
			n := 0
			var step func()
			step = func() {
				s.Cancel(guard)
				guard = s.After(5*sim.Microsecond, noop)
				if n++; n < steps {
					s.After(sim.Microsecond, step)
				}
			}
			s.After(0, step)
			s.Run()
			return n
		})
	}},
	{"sim.wheel_ns_per_op", "ns", 1, func() func() (int, time.Duration) {
		// Both wheel levels and the cascade between them: a 50 ms timer is
		// re-armed on level 1 (swap-remove cancel), a 300 µs timer lands on
		// level 0 and fires, and time crosses level-1 slot boundaries.
		s := sim.NewScheduler()
		noop := func() {}
		return whole(func() int {
			s.Reset()
			const steps = 50_000
			var far sim.Timer
			n := 0
			var step func()
			step = func() {
				s.Cancel(far)
				far = s.After(50*sim.Millisecond, noop)
				s.After(300*sim.Microsecond, noop)
				if n++; n < steps {
					s.After(20*sim.Microsecond, step)
				}
			}
			s.After(0, step)
			s.Run()
			return n
		})
	}},
	{"sim.sparse_ns_per_op", "ns", 1, func() func() (int, time.Duration) {
		// The probe shape: 64 periodic 1 ms timers with staggered phases
		// and nothing else, so most of the cost is advancing the wheel
		// between firings.
		s := sim.NewScheduler()
		return whole(func() int {
			s.Reset()
			n := 0
			var tick func()
			tick = func() {
				n++
				s.After(sim.Millisecond, tick)
			}
			for k := 0; k < 64; k++ {
				s.At(sim.Time(k)*sim.Time(15*sim.Microsecond), tick)
			}
			s.RunUntil(sim.Time(sim.Second))
			return n
		})
	}},
	{"sim.rearm_ns_per_op", "ns", 1, func() func() (int, time.Duration) {
		// Eight self-perpetuating chains re-armed in place at 80 µs — the
		// serialization-complete pattern of a busy port.
		s := sim.NewScheduler()
		return whole(func() int {
			s.Reset()
			n := 0
			chain := func() {
				n++
				s.Rearm(s.Now().Add(80 * sim.Microsecond))
			}
			for k := 0; k < 8; k++ {
				s.At(sim.Time(k)*sim.Time(7*sim.Microsecond), chain)
			}
			s.RunUntil(sim.Time(sim.Second / 2))
			return n
		})
	}},
	{"sim.reset_us", "us", 1e3, func() func() (int, time.Duration) {
		// Reset of a scheduler holding 4096 pending events spread over the
		// heap and both wheel levels; only the Reset call is timed.
		s := sim.NewScheduler()
		noop := func() {}
		return func() (int, time.Duration) {
			for k := 0; k < 4096; k++ {
				s.After(sim.Duration(k)*37*sim.Microsecond, noop)
			}
			t0 := time.Now()
			s.Reset()
			return 1, time.Since(t0)
		}
	}},
	{"netsim.fast_ns_per_pkt", "ns", 1, func() func() (int, time.Duration) {
		return hopsDriver(func(int) netsim.Queue { return netsim.NewDropTail(64) }, false)
	}},
	{"netsim.exact_ns_per_pkt", "ns", 1, func() func() (int, time.Duration) {
		return hopsDriver(func(int) netsim.Queue { return netsim.NewDropTail(64) }, true)
	}},
	{"netsim.red_ns_per_pkt", "ns", 1, func() func() (int, time.Duration) {
		return hopsDriver(func(hop int) netsim.Queue {
			return netsim.NewRED(hopRED, sim.NewRand(int64(hop+1)))
		}, false)
	}},
	{"netsim.drain_ns_per_pkt", "ns", 1, func() func() (int, time.Duration) {
		// A 4096-deep backlog filled in one burst and drained: one
		// serialization chain and one delivery ring.
		const depth = 4096
		sched := sim.NewScheduler()
		pool := netsim.NewPacketPool()
		delivered := 0
		sink := netsim.HandlerFunc(func(p *netsim.Packet) { delivered++; pool.Put(p) })
		port := netsim.NewPort(sched, netsim.NewDropTail(depth), netsim.NewLink(1_000_000_000, sim.Millisecond, sink))
		port.Pool = pool
		return whole(func() int {
			sched.Reset()
			port.Reset()
			delivered = 0
			sched.At(0, func() { offer(pool, port, depth) })
			sched.Run()
			if delivered != depth {
				panic(fmt.Sprintf("bench: drain delivered %d of %d", delivered, depth))
			}
			return depth
		})
	}},
	{"netsim.retune_us", "us", 1e3, func() func() (int, time.Duration) {
		// One modulator step on a port with 4096 packets committed: the
		// chain behind the packet on the wire is rewound at the new rate.
		// Only the Retune calls are timed.
		const depth, retunes = 4096, 16
		sched := sim.NewScheduler()
		pool := netsim.NewPacketPool()
		link := netsim.NewLink(1_000_000_000, sim.Millisecond, pool.Sink())
		port := netsim.NewPort(sched, netsim.NewDropTail(depth), link)
		port.Pool = pool
		var spent time.Duration
		k := 0
		var retune func()
		retune = func() {
			rate := int64(1_000_000_000)
			if k%2 == 0 {
				rate = 500_000_000
			}
			t0 := time.Now()
			link.Retune(rate, 0)
			spent += time.Since(t0)
			if k++; k < retunes {
				sched.After(100*sim.Microsecond, retune)
			}
		}
		return func() (int, time.Duration) {
			sched.Reset()
			port.Reset()
			link.Rate = 1_000_000_000
			spent, k = 0, 0
			sched.At(0, func() { offer(pool, port, depth) })
			sched.At(sim.Time(50*sim.Microsecond), retune)
			sched.Run()
			return retunes, spent
		}
	}},
	{"topo.compile_us", "us", 1e3, func() func() (int, time.Duration) {
		specs := driverSpecs()
		return whole(func() int {
			for _, sp := range specs {
				_, err := topo.Compile(sp)
				must(err)
			}
			return 1
		})
	}},
	{"topo.instantiate_us", "us", 1e3, func() func() (int, time.Duration) {
		specs := driverSpecs()
		progs := compileAll(specs)
		sched := sim.NewScheduler()
		return whole(func() int {
			for _, p := range progs {
				sched.Reset()
				_, err := p.Instantiate(sched, 1)
				must(err)
			}
			return 1
		})
	}},
	{"topo.reset_us", "us", 1e3, func() func() (int, time.Duration) {
		specs := driverSpecs()
		progs := compileAll(specs)
		scheds := make([]*sim.Scheduler, len(specs))
		nets := make([]*topo.Network, len(specs))
		for i, p := range progs {
			scheds[i] = sim.NewScheduler()
			n, err := p.Instantiate(scheds[i], 1)
			must(err)
			nets[i] = n
		}
		seed := int64(1)
		return whole(func() int {
			seed++
			for i, n := range nets {
				scheds[i].Reset()
				must(n.Reset(specs[i], seed))
			}
			return 1
		})
	}},
	{"tcp.pair_ns_per_pkt", "ns", 1, func() func() (int, time.Duration) {
		// One window-limited TCP pair over an uncongested 1 Gbps hop: no
		// queueing, no loss, so the cost per forwarded packet is sender and
		// receiver state plus two idle ports.
		spec := topo.Spec{Name: "bench-tcp-pair",
			Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b"}},
			Links: []topo.LinkSpec{{A: "a", B: "b", AB: topo.Dir{Rate: 1_000_000_000, Delay: sim.Millisecond}}},
			Flows: []topo.FlowSpec{{From: "a", To: "b"}},
		}
		return whole(func() int {
			sched := sim.NewScheduler()
			pool := netsim.NewPacketPool()
			net, err := topo.Build(sched, spec, 1)
			must(err)
			net.AttachPool(pool)
			f := tcp.NewPairFlow(sched, net.FlowSender(0), net.FlowReceiver(0), 1,
				tcp.Config{InitialRTT: net.FlowRTT(0), MaxCwnd: 64, Pool: pool})
			f.Sender.Start()
			sched.RunUntil(sim.Time(sim.Second))
			fwd := int(net.Forwarded())
			if fwd < 1000 {
				panic(fmt.Sprintf("bench: tcp pair forwarded only %d packets", fwd))
			}
			return fwd
		})
	}},
	{"ratectl.pipeline_ns_per_pkt", "ns", 1, func() func() (int, time.Duration) {
		// InterArrival → Kalman → overuse detector → AIMD over a recorded
		// sawtooth of queue build-ups and drains, no world around it.
		type pkt struct {
			send, arrive sim.Time
		}
		rng := sim.NewRand(9)
		pkts := make([]pkt, 20_000)
		queue := 0.0
		for i := range pkts {
			if (i/400)%2 == 0 {
				queue += 0.05
			} else if queue > 0 {
				queue -= 0.05
			}
			send := sim.Time(sim.Duration(i) * sim.Millisecond)
			lat := 20 + queue + rng.Float64()*0.3
			pkts[i] = pkt{send, send.Add(sim.Duration(lat * float64(sim.Millisecond)))}
		}
		var ia ratectl.InterArrival
		kal := ratectl.NewKalmanEstimator()
		det := ratectl.NewOveruseDetector()
		aimd := ratectl.NewAIMDController(125_000, 12_500, 0)
		return whole(func() int {
			ia.Reset()
			kal.Reset()
			det.Reset()
			aimd.Reset(125_000, 12_500, 0)
			for _, p := range pkts {
				d, ok := ia.Add(p.send, p.arrive, 1000)
				if !ok {
					continue
				}
				aimd.Update(det.Update(kal.Update(d), d.Arrival), 250_000, d.Arrival)
			}
			if det.OveruseHits == 0 || aimd.Decreases == 0 {
				panic("bench: sawtooth never tripped the overuse detector")
			}
			return len(pkts)
		})
	}},
	{"lossmodel.ns_per_draw", "ns", 1, func() func() (int, time.Duration) {
		ge := lossmodel.NewGilbertElliott(lossmodel.GEParams{PGB: 0.003, PBG: 0.25, KBad: 0.9}, sim.NewRand(1))
		return whole(func() int {
			const draws = 500_000
			lost := 0
			for k := 0; k < draws; k++ {
				if ge.Lost() {
					lost++
				}
			}
			if lost == 0 {
				panic("bench: Gilbert–Elliott chain never lost a packet")
			}
			return draws
		})
	}},
	{"analysis.observe_ns", "ns", 1, func() func() (int, time.Duration) {
		rec := clusteredTrace(driverLosses)
		an, err := analysis.NewStreaming(traceRTT, analysis.Config{})
		must(err)
		return whole(func() int {
			must(an.Reset(traceRTT, analysis.Config{}))
			for _, e := range rec.Events() {
				an.Observe(e)
			}
			return rec.Len()
		})
	}},
	{"analysis.finalize_us", "us", 1e3, func() func() (int, time.Duration) {
		an := observed(clusteredTrace(driverLosses))
		return whole(func() int {
			_, err := an.Finalize()
			must(err)
			return 1
		})
	}},
	{"analysis.absorb_us", "us", 1e3, func() func() (int, time.Duration) {
		// The merge the fleet turnstile serializes, in steady state: the
		// pooled reservoir is already past its bound.
		cfg := analysis.Config{KSReservoir: 1024}
		rec := clusteredTrace(2000)
		an, err := analysis.NewStreaming(traceRTT, cfg)
		must(err)
		for _, e := range rec.Events() {
			an.Observe(e)
		}
		agg := analysis.NewAggregate(cfg)
		for agg.KSExact() {
			must(agg.Absorb(an))
		}
		return whole(func() int {
			const merges = 64
			for k := 0; k < merges; k++ {
				must(agg.Absorb(an))
			}
			return merges
		})
	}},
	{"analysis.batch_ns_per_loss", "ns", 1, func() func() (int, time.Duration) {
		rec := clusteredTrace(driverLosses)
		return whole(func() int {
			_, err := analysis.AnalyzeTrace(rec, traceRTT, analysis.Config{})
			must(err)
			return rec.Len()
		})
	}},
	{"trace.csv_ns_per_loss", "ns", 1, func() func() (int, time.Duration) {
		rec := clusteredTrace(driverLosses)
		var buf bytes.Buffer
		return whole(func() int {
			buf.Reset()
			must(rec.WriteCSV(&buf))
			back, err := trace.ReadCSV(&buf)
			must(err)
			if back.Len() != rec.Len() {
				panic("bench: CSV round trip lost events")
			}
			return rec.Len()
		})
	}},
}

// offer hands n 1000-byte packets to the port in one burst.
func offer(pool *netsim.PacketPool, port *netsim.Port, n int) {
	for j := 0; j < n; j++ {
		p := pool.Get()
		p.Size = 1000
		port.Handle(p)
	}
}

const driverLosses = 20_000

// clusteredTrace is the fixed input of the measurement drivers: bursts of
// seven sub-RTT drops separated by three-RTT gaps, the shape every
// scenario produces.
func clusteredTrace(n int) *trace.Recorder {
	rec := &trace.Recorder{}
	var t sim.Time
	for rec.Len() < n {
		t = t.Add(3 * traceRTT)
		for i := 0; i < 7 && rec.Len() < n; i++ {
			t = t.Add(traceRTT / 100)
			rec.Add(trace.LossEvent{At: t, Flow: i, Seq: int64(rec.Len()), Size: 1000})
		}
	}
	return rec
}

func observed(rec *trace.Recorder) *analysis.Streaming {
	an, err := analysis.NewStreaming(traceRTT, analysis.Config{})
	must(err)
	for _, e := range rec.Events() {
		an.Observe(e)
	}
	return an
}

// hopRED is the RED queue of the netsim.red_ns_per_pkt hops.
var hopRED = netsim.REDConfig{Limit: 64, MinTh: 8, MaxTh: 32, MaxP: 0.1, PacketsPerSecond: 125_000}

// hopsDriver builds three ports in a row behind a bursty CBR feed — four
// 1000 B packets every 100 µs into 1 Gbps links, and 76 on every tenth
// tick, so the first queue overflows once a millisecond while the ports
// still fall idle between bursts — with no transport on either end. With
// lossy set, each port consults a Gilbert–Elliott wire-loss hook, which
// takes it off the fast path onto per-packet serialization events.
func hopsDriver(queue func(hop int) netsim.Queue, lossy bool) func() (int, time.Duration) {
	const total = 60_000
	sched := sim.NewScheduler()
	pool := netsim.NewPacketPool()
	var next netsim.Handler = pool.Sink()
	ports := make([]*netsim.Port, 3)
	chains := make([]*lossmodel.GilbertElliott, 3)
	ge := lossmodel.GEParams{PGB: 0.003, PBG: 0.25, KBad: 0.9}
	for h := 2; h >= 0; h-- {
		p := netsim.NewPort(sched, queue(h), netsim.NewLink(1_000_000_000, 200*sim.Microsecond, next))
		p.Pool = pool
		chains[h] = lossmodel.NewGilbertElliott(ge, sim.NewRand(int64(h+1)))
		ports[h] = p
		next = p
	}
	return whole(func() int {
		sched.Reset()
		for h, p := range ports {
			p.Reset()
			if red, ok := p.Queue.(*netsim.RED); ok {
				red.Reset(hopRED, int64(h+1))
			}
			if lossy { // Port.Reset detaches every hook
				chains[h].Reset(ge, int64(h+1))
				p.LinkLoss = chains[h].Lost
			}
		}
		sent, tick := 0, 0
		var feed func()
		feed = func() {
			burst := 4
			if tick++; tick%10 == 0 {
				burst = 76
			}
			for j := 0; j < burst && sent < total; j++ {
				p := pool.Get()
				p.Size = 1000
				sent++
				ports[0].Handle(p)
			}
			if sent < total {
				sched.After(100*sim.Microsecond, feed)
			}
		}
		sched.After(0, feed)
		sched.Run()
		var gone uint64
		for _, p := range ports {
			gone += p.Dropped + p.LinkDropped
		}
		if ports[0].Forwarded()+ports[0].Dropped != total || ports[2].Forwarded() == 0 || gone == 0 {
			panic(fmt.Sprintf("bench: hop accounting: sent %d, first hop forwarded %d + dropped %d, all drops %d",
				total, ports[0].Forwarded(), ports[0].Dropped, gone))
		}
		return total
	})
}

// driverSpecs are the two shapes the topo drivers build: the paper's
// 16-pair dumbbell, and an 8-station wireless hop whose rate walks and
// whose wire loses packets in bursts (the wifi-gilbert shape), so the
// reset path includes modulator and loss-chain reseeding.
func driverSpecs() []topo.Spec {
	delays := make([]sim.Duration, 16)
	for i := range delays {
		delays[i] = sim.Duration(5+5*i) * sim.Millisecond
	}
	dumbbell := topo.DumbbellSpec(netsim.DumbbellConfig{
		BottleneckRate: 100_000_000, BottleneckDelay: sim.Millisecond,
		AccessRate: 1_000_000_000, AccessDelays: delays, Buffer: 64,
	})
	wifi := topo.Spec{Name: "bench-wifi",
		Nodes: []topo.NodeSpec{{Name: "ap"}, {Name: "gw"}},
		Links: []topo.LinkSpec{{A: "ap", B: "gw",
			AB: topo.Dir{Rate: 30_000_000, Delay: 3 * sim.Millisecond, Queue: topo.QueueSpec{Limit: 64},
				Dynamics: &topo.DynamicsSpec{Walk: &topo.WalkSpec{Min: 12_000_000, Max: 54_000_000,
					Factor: 1.3, Interval: 200 * sim.Millisecond}},
				Loss: &topo.LossSpec{PGB: 0.003, PBG: 0.25, KBad: 0.9}},
			BA: topo.Dir{Rate: 30_000_000, Delay: 3 * sim.Millisecond}}},
	}
	for j := 0; j < 8; j++ {
		snd, rcv := fmt.Sprintf("s%d", j), fmt.Sprintf("r%d", j)
		access := topo.Dir{Rate: 1_000_000_000, Delay: sim.Duration(3+3*j) * sim.Millisecond}
		wifi.Nodes = append(wifi.Nodes, topo.NodeSpec{Name: snd}, topo.NodeSpec{Name: rcv})
		wifi.Links = append(wifi.Links,
			topo.LinkSpec{A: snd, B: "ap", AB: access},
			topo.LinkSpec{A: "gw", B: rcv, AB: access})
		wifi.Flows = append(wifi.Flows, topo.FlowSpec{From: snd, To: rcv})
	}
	return []topo.Spec{dumbbell, wifi}
}

func compileAll(specs []topo.Spec) []*topo.Program {
	progs := make([]*topo.Program, len(specs))
	for i, sp := range specs {
		p, err := topo.Compile(sp)
		must(err)
		progs[i] = p
	}
	return progs
}
