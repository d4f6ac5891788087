package planetlab

import (
	"fmt"
	"math/rand"

	"repro/internal/sim"
)

// PathParams describes one directed Internet path of the mesh.
type PathParams struct {
	SrcSite, DstSite int
	RTT              sim.Duration

	// EpisodeRate is the Poisson arrival rate of congestion episodes
	// (episodes per second).
	EpisodeRate float64
	// MeanEpisode is the mean (exponential) episode duration. Sub-RTT
	// episode durations are what produce the paper's clustering.
	MeanEpisode sim.Duration
	// LossInEpisode is the per-packet loss probability while an episode is
	// active.
	LossInEpisode float64
	// Background is the independent per-packet loss probability outside
	// episodes.
	Background float64
	// JitterMax bounds the uniform per-packet one-way delay jitter.
	JitterMax sim.Duration
}

// Validate sanity-checks the parameters.
func (p PathParams) Validate() error {
	if p.RTT <= 0 {
		return fmt.Errorf("planetlab: path RTT must be positive")
	}
	if p.EpisodeRate < 0 || p.MeanEpisode < 0 {
		return fmt.Errorf("planetlab: negative episode parameters")
	}
	if p.LossInEpisode < 0 || p.LossInEpisode > 1 || p.Background < 0 || p.Background > 1 {
		return fmt.Errorf("planetlab: loss probabilities outside [0,1]")
	}
	return nil
}

// Path is the live loss/delay process of one directed path. It advances a
// continuous-time congestion-episode schedule lazily as packets query it;
// queries must come with nondecreasing times (which a single scheduler
// guarantees).
type Path struct {
	Params PathParams

	rng *rand.Rand

	nextEpisode sim.Time // start of the next scheduled episode
	episodeEnd  sim.Time // end of the currently scheduled episode (may be past)
	lastQuery   sim.Time

	// Statistics.
	Queries  uint64
	Losses   uint64
	Episodes uint64
}

// NewPath builds a path process.
func NewPath(params PathParams, rng *rand.Rand) *Path {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("planetlab: NewPath requires rng")
	}
	p := &Path{Params: params, rng: rng}
	p.scheduleNextEpisode(0)
	return p
}

func (p *Path) scheduleNextEpisode(after sim.Time) {
	if p.Params.EpisodeRate <= 0 {
		p.nextEpisode = sim.Time(int64(^uint64(0) >> 2)) // effectively never
		return
	}
	gap := sim.Duration(p.rng.ExpFloat64() / p.Params.EpisodeRate * float64(sim.Second))
	p.nextEpisode = after.Add(gap)
}

// advance rolls the episode schedule forward to time t.
func (p *Path) advance(t sim.Time) {
	for t >= p.nextEpisode {
		start := p.nextEpisode
		dur := sim.Exponential(p.rng, p.Params.MeanEpisode)
		p.episodeEnd = start.Add(dur)
		p.Episodes++
		p.scheduleNextEpisode(start)
		// Overlapping episodes merge: if the next starts before this one
		// ends, the loop keeps extending episodeEnd monotonically. (A new
		// shorter episode must not truncate the current one.)
		if p.episodeEnd < start {
			p.episodeEnd = start
		}
	}
}

// Congested reports whether a congestion episode is active at time t.
func (p *Path) Congested(t sim.Time) bool {
	p.advance(t)
	return t < p.episodeEnd
}

// Transmit decides the fate of a packet entering the path at time t.
// It reports true when the packet survives.
func (p *Path) Transmit(t sim.Time) bool {
	if t < p.lastQuery {
		panic("planetlab: path queried with decreasing time")
	}
	p.lastQuery = t
	p.Queries++
	loss := p.Params.Background
	if p.Congested(t) {
		loss = p.Params.LossInEpisode
	}
	if p.rng.Float64() < loss {
		p.Losses++
		return false
	}
	return true
}

// OneWayDelay draws the one-way delay for a surviving packet: half the
// RTT plus uniform jitter.
func (p *Path) OneWayDelay() sim.Duration {
	d := p.Params.RTT / 2
	if p.Params.JitterMax > 0 {
		d += sim.Duration(p.rng.Int63n(int64(p.Params.JitterMax)))
	}
	return d
}
