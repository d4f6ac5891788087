package planetlab

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

func TestSitesMatchPaper(t *testing.T) {
	sites := Sites()
	if len(sites) != 26 {
		t.Fatalf("sites = %d, want 26 (paper Table 1)", len(sites))
	}
	// Regional composition from the paper: 6 in California, 3 in Canada.
	count := map[string]int{}
	hosts := map[string]bool{}
	for _, s := range sites {
		count[s.Region]++
		if hosts[s.Host] {
			t.Fatalf("duplicate host %s", s.Host)
		}
		hosts[s.Host] = true
		if s.Lat < -90 || s.Lat > 90 || s.Lon < -180 || s.Lon > 180 {
			t.Fatalf("%s has bad coordinates", s.Host)
		}
	}
	if count["CA"] != 6 {
		t.Fatalf("CA sites = %d, want 6", count["CA"])
	}
	if count["US"] != 11 {
		t.Fatalf("other-US sites = %d, want 11", count["US"])
	}
	if count["Canada"] != 3 {
		t.Fatalf("Canada sites = %d, want 3", count["Canada"])
	}
}

func TestGreatCircle(t *testing.T) {
	// LA to NYC ≈ 3940 km.
	d := GreatCircleKm(34.05, -118.24, 40.71, -74.01)
	if d < 3800 || d > 4100 {
		t.Fatalf("LA-NYC distance = %v km", d)
	}
	if GreatCircleKm(10, 20, 10, 20) != 0 {
		t.Fatal("self distance nonzero")
	}
	// Symmetry.
	if math.Abs(GreatCircleKm(1, 2, 3, 4)-GreatCircleKm(3, 4, 1, 2)) > 1e-9 {
		t.Fatal("distance not symmetric")
	}
}

func TestMeshRTTRange(t *testing.T) {
	m := NewMesh(42)
	var rtts []sim.Duration
	for i := range m.Sites {
		for j := range m.Sites {
			if i != j {
				rtts = append(rtts, m.PathParams(i, j).RTT)
			}
		}
	}
	if len(rtts) != 650 {
		t.Fatalf("rtt count = %d", len(rtts))
	}
	var minR, maxR = rtts[0], rtts[0]
	for _, r := range rtts {
		if r < minR {
			minR = r
		}
		if r > maxR {
			maxR = r
		}
	}
	// Paper: 2 ms to >300 ms.
	if minR < 2*sim.Millisecond || minR > 20*sim.Millisecond {
		t.Fatalf("min RTT = %v", minR)
	}
	if maxR < 200*sim.Millisecond || maxR > 350*sim.Millisecond {
		t.Fatalf("max RTT = %v", maxR)
	}
}

func TestMeshDeterministic(t *testing.T) {
	a := NewMesh(7)
	b := NewMesh(7)
	c := NewMesh(8)
	if a.PathParams(0, 1) != b.PathParams(0, 1) {
		t.Fatal("same seed, different params")
	}
	diff := false
	for i := 0; i < 5 && !diff; i++ {
		for j := 0; j < 5; j++ {
			if i != j && a.PathParams(i, j) != c.PathParams(i, j) {
				diff = true
				break
			}
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical meshes")
	}
}

func TestMeshSelfPathPanics(t *testing.T) {
	m := NewMesh(1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	m.PathParams(3, 3)
}

func TestMeshRandomPair(t *testing.T) {
	m := NewMesh(1)
	rng := sim.NewRand(5)
	for k := 0; k < 1000; k++ {
		i, j := m.RandomPair(rng)
		if i == j || i < 0 || j < 0 || i >= 26 || j >= 26 {
			t.Fatalf("bad pair %d,%d", i, j)
		}
	}
}

func TestPathEpisodeLossClustering(t *testing.T) {
	// A path with frequent episodes and total in-episode loss: losses must
	// cluster (consecutive probe packets lost together).
	params := PathParams{
		RTT:           100 * sim.Millisecond,
		EpisodeRate:   2,
		MeanEpisode:   20 * sim.Millisecond,
		LossInEpisode: 1.0,
		Background:    0,
	}
	p := NewPath(params, sim.NewRand(3))
	interval := sim.Millisecond
	var lossTimes []sim.Time
	for k := 0; k < 300000; k++ {
		at := sim.Time(int64(k) * int64(interval))
		if !p.Transmit(at) {
			lossTimes = append(lossTimes, at)
		}
	}
	if len(lossTimes) < 100 {
		t.Fatalf("only %d losses", len(lossTimes))
	}
	// Most inter-loss gaps should equal the probe interval (in-episode).
	small := 0
	for i := 1; i < len(lossTimes); i++ {
		if lossTimes[i].Sub(lossTimes[i-1]) == interval {
			small++
		}
	}
	frac := float64(small) / float64(len(lossTimes)-1)
	if frac < 0.7 {
		t.Fatalf("only %.2f of gaps are back-to-back; expected clustering", frac)
	}
	if p.Episodes == 0 || p.Losses == 0 || p.Queries != 300000 {
		t.Fatalf("stats: %+v", p)
	}
}

func TestPathBackgroundLossOnly(t *testing.T) {
	params := PathParams{
		RTT:        50 * sim.Millisecond,
		Background: 0.01,
	}
	p := NewPath(params, sim.NewRand(4))
	losses := 0
	for k := 0; k < 100000; k++ {
		if !p.Transmit(sim.Time(int64(k) * int64(sim.Millisecond))) {
			losses++
		}
	}
	rate := float64(losses) / 100000
	if rate < 0.007 || rate > 0.013 {
		t.Fatalf("background loss rate = %v, want ≈0.01", rate)
	}
	if p.Episodes != 0 {
		t.Fatalf("episodes = %d with zero episode rate", p.Episodes)
	}
}

func TestPathDecreasingTimePanics(t *testing.T) {
	p := NewPath(PathParams{RTT: sim.Millisecond}, sim.NewRand(1))
	p.Transmit(sim.Time(100))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	p.Transmit(sim.Time(50))
}

func TestPathValidation(t *testing.T) {
	bad := []PathParams{
		{RTT: 0},
		{RTT: 1, EpisodeRate: -1},
		{RTT: 1, LossInEpisode: 2},
		{RTT: 1, Background: -0.5},
	}
	for _, params := range bad {
		if params.Validate() == nil {
			t.Fatalf("accepted %+v", params)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewPath accepted bad params")
			}
		}()
		NewPath(PathParams{}, sim.NewRand(1))
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewPath accepted nil rng")
			}
		}()
		NewPath(PathParams{RTT: 1}, nil)
	}()
}

func TestPathOneWayDelay(t *testing.T) {
	p := NewPath(PathParams{RTT: 100 * sim.Millisecond}, sim.NewRand(6))
	if d := p.OneWayDelay(); d != 50*sim.Millisecond {
		t.Fatalf("delay = %v, want RTT/2 without jitter", d)
	}
	p = NewPath(PathParams{RTT: 100 * sim.Millisecond, JitterMax: 2 * sim.Millisecond}, sim.NewRand(6))
	for i := 0; i < 1000; i++ {
		if d := p.OneWayDelay(); d < 50*sim.Millisecond || d >= 52*sim.Millisecond {
			t.Fatalf("delay = %v, want RTT/2 plus jitter in [0, 2ms)", d)
		}
	}
}

func TestMeshEpisodeDurationsSubRTT(t *testing.T) {
	m := NewMesh(9)
	for i := 0; i < 26; i++ {
		for j := 0; j < 26; j++ {
			if i == j {
				continue
			}
			p := m.PathParams(i, j)
			if p.MeanEpisode > p.RTT {
				t.Fatalf("path %d->%d: episode %v exceeds RTT %v",
					i, j, p.MeanEpisode, p.RTT)
			}
		}
	}
}

func TestRandomPairsDistinctAndCapped(t *testing.T) {
	m := NewMesh(1)
	rng := rand.New(rand.NewSource(7))
	pairs := m.RandomPairs(rng, 10)
	seen := map[[2]int]bool{}
	for _, p := range pairs {
		if p[0] == p[1] {
			t.Fatalf("self pair %v", p)
		}
		if seen[p] {
			t.Fatalf("duplicate pair %v", p)
		}
		seen[p] = true
	}
	if len(pairs) != 10 {
		t.Fatalf("pairs = %d", len(pairs))
	}
	// Asking for more pairs than exist must terminate with all 650, not
	// spin forever on an exhausted pair space.
	all := m.RandomPairs(rand.New(rand.NewSource(8)), 100000)
	if len(all) != len(m.Sites)*(len(m.Sites)-1) {
		t.Fatalf("capped pairs = %d", len(all))
	}
}

// TestMeshPinned pins every field of all 650 derived paths for two seeds,
// bit for bit, so a change to how the mesh is built cannot move a path.
// It also bounds what building a mesh and reading a handful of its paths
// allocates: a mesh derives the paths it is asked for, and an eager table
// of all 650 (an rng source each) cannot come back unnoticed.
func TestMeshPinned(t *testing.T) {
	for _, c := range []struct {
		seed int64
		want uint64
	}{{1, 0x4fc988f99a7e21d4}, {7, 0xb44698e3cf221f1e}} {
		m := NewMesh(c.seed)
		h := fnv.New64a()
		var buf [8]byte
		fold := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for i := range m.Sites {
			for j := range m.Sites {
				if i == j {
					continue
				}
				p := m.PathParams(i, j)
				fold(uint64(p.SrcSite))
				fold(uint64(p.DstSite))
				fold(uint64(p.RTT))
				fold(math.Float64bits(p.EpisodeRate))
				fold(uint64(p.MeanEpisode))
				fold(math.Float64bits(p.LossInEpisode))
				fold(math.Float64bits(p.Background))
				fold(uint64(p.JitterMax))
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("seed %d: mesh hash %#016x, want %#016x", c.seed, got, c.want)
		}
	}
	allocs := testing.AllocsPerRun(10, func() {
		m := NewMesh(1)
		for k := 0; k < 8; k++ {
			m.PathParams(k, k+1)
		}
	})
	// The mesh, its site list, and one rng source per derived path; an
	// eager table costs 679.
	if allocs > 2+8 {
		t.Fatalf("NewMesh + 8 PathParams: %v allocs, want ≤ 10", allocs)
	}
}
