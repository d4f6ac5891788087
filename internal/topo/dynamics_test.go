package topo_test

import (
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/topo"
)

// dynSpec is a minimal source → bottleneck → sink chain whose middle hop
// carries the given dynamics and loss declarations.
func dynSpec(dyn *topo.DynamicsSpec, loss *topo.LossSpec) topo.Spec {
	return topo.Spec{
		Name:  "dyn",
		Nodes: []topo.NodeSpec{{Name: "src"}, {Name: "a"}, {Name: "b"}, {Name: "dst"}},
		Links: []topo.LinkSpec{
			{A: "src", B: "a", AB: topo.Dir{Rate: 100_000_000, Delay: sim.Millisecond}},
			{A: "a", B: "b", AB: topo.Dir{
				Rate: 10_000_000, Delay: 2 * sim.Millisecond,
				Queue:    topo.QueueSpec{Limit: 16},
				Dynamics: dyn,
				Loss:     loss,
			}},
			{A: "b", B: "dst", AB: topo.Dir{Rate: 100_000_000, Delay: sim.Millisecond}},
		},
		Flows: []topo.FlowSpec{{From: "src", To: "dst"}},
	}
}

func TestDynamicsValidation(t *testing.T) {
	t.Parallel()
	cases := []struct {
		name string
		dyn  *topo.DynamicsSpec
		loss *topo.LossSpec
		want string
	}{
		{"empty dynamics", &topo.DynamicsSpec{}, nil, "exactly one"},
		{"two programs", &topo.DynamicsSpec{
			Steps:     []netsim.RateStep{{At: 0, Rate: 1}},
			Oscillate: &topo.OscillateSpec{Min: 1, Max: 2, Period: sim.Second, Interval: sim.Second},
		}, nil, "exactly one"},
		{"no steps", &topo.DynamicsSpec{Steps: []netsim.RateStep{}}, nil, "schedule is empty"},
		{"unsorted steps", &topo.DynamicsSpec{
			Steps: []netsim.RateStep{{At: sim.Second}, {At: sim.Second}},
		}, nil, "not after"},
		{"short loop", &topo.DynamicsSpec{
			Steps: []netsim.RateStep{{At: 2 * sim.Second, Rate: 1}},
			Loop:  sim.Second,
		}, nil, "loop"},
		{"loop without steps", &topo.DynamicsSpec{
			Oscillate: &topo.OscillateSpec{Min: 1, Max: 2, Period: sim.Second, Interval: sim.Second},
			Loop:      sim.Second,
		}, nil, "Loop only applies"},
		{"oscillate bounds", &topo.DynamicsSpec{
			Oscillate: &topo.OscillateSpec{Min: 5, Max: 2, Period: sim.Second, Interval: sim.Second},
		}, nil, "bounds"},
		{"oscillate period", &topo.DynamicsSpec{
			Oscillate: &topo.OscillateSpec{Min: 1, Max: 2, Interval: sim.Second},
		}, nil, "period"},
		{"walk factor", &topo.DynamicsSpec{
			Walk: &topo.WalkSpec{Min: 1, Max: 2, Factor: 1, Interval: sim.Second},
		}, nil, "factor"},
		{"walk interval", &topo.DynamicsSpec{
			Walk: &topo.WalkSpec{Min: 1, Max: 2, Factor: 1.5},
		}, nil, "interval"},
		{"loss params", nil, &topo.LossSpec{PGB: 1.5}, "outside [0,1]"},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			_, err := topo.Build(sim.NewScheduler(), dynSpec(tc.dyn, tc.loss), 1)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v; want substring %q", err, tc.want)
			}
		})
	}
}

// TestMirroredReverseInheritsDynamics: a zero BA mirrors the forward
// dynamics/loss declarations with independent instances.
func TestMirroredReverseInheritsDynamics(t *testing.T) {
	t.Parallel()
	spec := topo.Spec{
		Name:  "mirror",
		Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b"}},
		Links: []topo.LinkSpec{{A: "a", B: "b", AB: topo.Dir{
			Rate: 1_000_000, Delay: sim.Millisecond,
			Dynamics: &topo.DynamicsSpec{Oscillate: &topo.OscillateSpec{
				Min: 500_000, Max: 2_000_000, Period: sim.Second, Interval: 100 * sim.Millisecond,
			}},
			Loss: topo.BernoulliLoss(0.1),
		}}},
	}
	sched := sim.NewScheduler()
	net, err := topo.Build(sched, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	fwd, rev := net.Modulator("a", "b"), net.Modulator("b", "a")
	if fwd == nil || rev == nil {
		t.Fatal("mirrored direction lost its modulator")
	}
	if fwd == rev || fwd.Link() == rev.Link() {
		t.Fatal("directions share a modulator or link instance")
	}
	if net.Port("a", "b").LinkLoss == nil || net.Port("b", "a").LinkLoss == nil {
		t.Fatal("mirrored direction lost its loss process")
	}
}

// TestReverseDynamicsWithoutRateRejected: declaring BA dynamics/loss with
// no BA rate is the silently-discarded-intent error the validator names.
func TestReverseDynamicsWithoutRateRejected(t *testing.T) {
	t.Parallel()
	spec := topo.Spec{
		Name:  "bad-reverse",
		Nodes: []topo.NodeSpec{{Name: "a"}, {Name: "b"}},
		Links: []topo.LinkSpec{{A: "a", B: "b",
			AB: topo.Dir{Rate: 1_000_000},
			BA: topo.Dir{Loss: topo.BernoulliLoss(0.1)},
		}},
	}
	_, err := topo.Build(sim.NewScheduler(), spec, 1)
	if err == nil || !strings.Contains(err.Error(), "no rate") {
		t.Fatalf("err = %v; want the reverse-direction error", err)
	}
}

// runDynWorld builds the dynamic chain, floods the bottleneck with a
// deterministic arrival process, and returns the bottleneck port after
// dur of simulated time.
func runDynWorld(t *testing.T, seed int64, dyn *topo.DynamicsSpec, loss *topo.LossSpec, dur sim.Duration) *netsim.Port {
	t.Helper()
	sched := sim.NewScheduler()
	net, err := topo.Build(sched, dynSpec(dyn, loss), seed)
	if err != nil {
		t.Fatal(err)
	}
	net.Node("dst").BindDefault(netsim.HandlerFunc(func(p *netsim.Packet) {}))
	src, dstAddr := net.Node("src"), net.Addr("dst")
	var feed func()
	feed = func() {
		p := &netsim.Packet{Size: 1000, Kind: netsim.Data, Src: net.Addr("src"), Dst: dstAddr}
		src.Handle(p)
		sched.After(500*sim.Microsecond, feed) // 16 Mbps offered at a 10 Mbps hop
	}
	sched.After(0, feed)
	sched.RunUntil(sim.Time(dur))
	return net.Port("a", "b")
}

// TestBuildSeedsDynamicsDeterministically: identical (spec, seed) builds
// produce identical modulated worlds; a different seed moves the
// random-walk and loss-chain streams.
func TestBuildSeedsDynamicsDeterministically(t *testing.T) {
	t.Parallel()
	dyn := &topo.DynamicsSpec{Walk: &topo.WalkSpec{
		Min: 1_000_000, Max: 20_000_000, Factor: 1.5, Interval: 50 * sim.Millisecond,
	}}
	loss := &topo.LossSpec{PGB: 0.01, PBG: 0.2, KGood: 0, KBad: 1}

	type counters struct{ fwd, drop, wire uint64 }
	run := func(seed int64) counters {
		p := runDynWorld(t, seed, dyn, loss, 5*sim.Second)
		return counters{p.Forwarded(), p.Dropped, p.LinkDropped}
	}
	a, b := run(3), run(3)
	if a != b {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
	if a.wire == 0 || a.drop == 0 {
		t.Fatalf("world not exercising both loss kinds: %+v", a)
	}
	if c := run(4); c == a {
		t.Fatalf("different seeds produced identical dynamics: %+v", c)
	}
}

// TestModulatorAccessor: present on dynamic directions, nil on static
// ones, panics on unknown links.
func TestModulatorAccessor(t *testing.T) {
	t.Parallel()
	dyn := &topo.DynamicsSpec{Steps: []netsim.RateStep{{At: sim.Second, Rate: 1_000_000}}}
	net, err := topo.Build(sim.NewScheduler(), dynSpec(dyn, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if net.Modulator("a", "b") == nil {
		t.Fatal("dynamic direction has no modulator")
	}
	if net.Modulator("src", "a") != nil {
		t.Fatal("static direction reports a modulator")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown link did not panic")
		}
	}()
	net.Modulator("nope", "a")
}

func TestParseBandwidthTrace(t *testing.T) {
	t.Parallel()
	steps, err := topo.ParseBandwidthTrace([]byte(`
# comment line
0 16.0
1.5 2.4   # inline comment
3 24
`))
	if err != nil {
		t.Fatal(err)
	}
	want := []netsim.RateStep{
		{At: 0, Rate: 16_000_000},
		{At: 1500 * sim.Millisecond, Rate: 2_400_000},
		{At: 3 * sim.Second, Rate: 24_000_000},
	}
	if len(steps) != len(want) {
		t.Fatalf("steps = %+v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, steps[i], want[i])
		}
	}

	for name, in := range map[string]string{
		"empty":          "# nothing\n",
		"bad fields":     "0 16 extra\n",
		"bad time":       "x 16\n",
		"bad rate":       "0 -3\n",
		"zero rate":      "0 0\n",
		"non-increasing": "1 16\n1 12\n",
		"NaN time":       "NaN 5\n",
		"Inf time":       "+Inf 5\n",
		"overflow time":  "1e300 5\n",
		"NaN rate":       "0 NaN\n",
		"Inf rate":       "0 Inf\n",
		"overflow rate":  "0 1e30\n",
		"sub-bps rate":   "0 1e-7\n",
	} {
		if _, err := topo.ParseBandwidthTrace([]byte(in)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// FuzzParseBandwidthTrace: the parser never panics, and whatever it accepts
// is a schedule a modulator can run — offsets non-negative and strictly
// increasing, every rate at least 1 bps (0 would mean "keep the rate").
func FuzzParseBandwidthTrace(f *testing.F) {
	f.Add([]byte("# t mbps\n0 16.0\n1.5 2.4 # dip\n3 24\n"))
	f.Add([]byte("NaN 5\n"))
	f.Add([]byte("0 1e-7\n1e300 Inf\n"))
	f.Add([]byte("9223372036.854775 9223372036854.775\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		steps, err := topo.ParseBandwidthTrace(data)
		if err != nil {
			return
		}
		if len(steps) == 0 {
			t.Fatal("no error and no steps")
		}
		last := sim.Duration(-1)
		for i, st := range steps {
			if st.At <= last || st.Rate < 1 {
				t.Fatalf("step %d = %+v after offset %v", i, st, last)
			}
			last = st.At
		}
	})
}

// TestBernoulliLossHelper: the independent-loss convenience produces a
// state-blind chain.
func TestBernoulliLossHelper(t *testing.T) {
	t.Parallel()
	l := topo.BernoulliLoss(0.25)
	if l.KGood != 0.25 || l.KBad != 0.25 || l.PGB != 0 || l.PBG != 0 {
		t.Fatalf("BernoulliLoss = %+v", *l)
	}
}
