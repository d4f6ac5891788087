package planetlab

import (
	"math/rand"

	"repro/internal/sim"
)

// Path derivation constants: great-circle propagation time is inflated by
// routeInflation for indirect fiber routes, and path RTTs are clamped to
// [minRTT, maxRTT] (the paper's minimum was 2 ms, and it saw >300 ms).
const (
	routeInflation = 1.7
	minRTT         = 2 * sim.Millisecond
	maxRTT         = 350 * sim.Millisecond
)

// Mesh is the synthetic testbed over the paper's 26 sites. It holds only
// the sites and the seed: each of the 650 directed paths is
// derived on demand, a pure function of the seed and the site pair, so a
// mesh costs nothing for the paths nobody asks for and is safe to share
// across goroutines.
type Mesh struct {
	Sites []Site
	seed  int64
}

// NewMesh returns the mesh over the paper's 26 sites; paths are derived
// when asked for, and seed determines every per-path parameter.
func NewMesh(seed int64) *Mesh {
	return &Mesh{Sites: Sites(), seed: seed}
}

// derivePath computes deterministic per-path parameters from the seed and
// the site pair.
func (m *Mesh) derivePath(i, j int) PathParams {
	rng := rand.New(rand.NewSource(sim.SubSeed(m.seed, int64(i*1000+j))))

	a, b := m.Sites[i], m.Sites[j]
	km := GreatCircleKm(a.Lat, a.Lon, b.Lat, b.Lon)
	// Light in fiber ≈ 200,000 km/s; inflate for route indirection, then
	// add a path-specific extra of up to +60% for queueing/peering.
	propSec := km / 200000.0 * routeInflation
	rtt := sim.Duration(2 * propSec * float64(sim.Second))
	rtt += sim.Duration(rng.Float64() * 0.6 * float64(rtt))
	// Same-metro pairs still have a couple of ms.
	rtt += sim.Duration(2+rng.Intn(4)) * sim.Millisecond
	rtt = min(max(rtt, minRTT), maxRTT)

	// Congestion-episode parameters. Episode durations are tied to the
	// path RTT (drop bursts last a fraction of the bottleneck's RTT —
	// DropTail overflow persists until senders back off, about half an
	// RTT), with heterogeneity across paths: some paths congested often,
	// some almost never.
	episodeRate := 0.02 + rng.Float64()*0.4 // 1 per 50 s … 1 per 2.4 s
	meanEpisode := sim.Duration((0.1 + 0.5*rng.Float64()) * float64(rtt))
	if meanEpisode < sim.Millisecond {
		meanEpisode = sim.Millisecond
	}
	return PathParams{
		SrcSite:       i,
		DstSite:       j,
		RTT:           rtt,
		EpisodeRate:   episodeRate,
		MeanEpisode:   meanEpisode,
		LossInEpisode: 0.55 + 0.4*rng.Float64(),
		Background:    rng.Float64() * 5e-4,
		JitterMax:     sim.Duration(float64(rtt) * 0.02),
	}
}

// PathParams returns the derived parameters for the directed path i→j.
// Panics on the diagonal.
func (m *Mesh) PathParams(i, j int) PathParams {
	if i == j {
		panic("planetlab: no self path")
	}
	return m.derivePath(i, j)
}

// NewPathProcess instantiates the live loss process for path i→j with an
// independent, deterministic random stream.
func (m *Mesh) NewPathProcess(i, j int) *Path {
	params := m.PathParams(i, j)
	rng := rand.New(rand.NewSource(sim.SubSeed(m.seed+1, int64(i*1000+j))))
	return NewPath(params, rng)
}

// RandomPair picks a random ordered site pair, the paper's "two randomly
// picked sites".
func (m *Mesh) RandomPair(rng *rand.Rand) (int, int) {
	n := len(m.Sites)
	i := rng.Intn(n)
	j := rng.Intn(n - 1)
	if j >= i {
		j++
	}
	return i, j
}

// RandomPairs picks n distinct random ordered site pairs, in pick order.
// n is capped at the mesh's total number of directed paths (650 for the
// paper's 26 sites), so asking for "all of them or more" terminates
// instead of spinning on an exhausted pair space.
func (m *Mesh) RandomPairs(rng *rand.Rand, n int) [][2]int {
	total := len(m.Sites) * (len(m.Sites) - 1)
	if n > total {
		n = total
	}
	pairs := make([][2]int, 0, n)
	seen := make(map[[2]int]bool, n)
	for len(pairs) < n {
		i, j := m.RandomPair(rng)
		if seen[[2]int{i, j}] {
			continue
		}
		seen[[2]int{i, j}] = true
		pairs = append(pairs, [2]int{i, j})
	}
	return pairs
}
