// Package lossmodel implements the two-state Gilbert–Elliott Markov loss
// chain that topo wires onto a link direction with a LossSpec. The paper's
// Internet measurements show loss clustering well beyond what independent
// loss can produce; GE is the standard minimal model of such clustering.
package lossmodel

import (
	"fmt"
	"math/rand"
)

// GEState is a Gilbert–Elliott chain state.
type GEState uint8

// The two chain states.
const (
	Good GEState = iota
	Bad
)

func (s GEState) String() string {
	if s == Good {
		return "good"
	}
	return "bad"
}

// GilbertElliott is the classic two-state Markov loss model: a Good state
// with loss probability KGood (usually ≈0) and a Bad state with loss
// probability KBad (high). PGB is the per-packet probability of moving
// Good→Bad; PBG of moving Bad→Good. Mean bad-burst length is 1/PBG packets,
// which — relative to how many packets cross the path per RTT — controls
// exactly the sub-RTT clustering the paper measures.
type GilbertElliott struct {
	PGB, PBG    float64
	KGood, KBad float64

	state GEState
	rng   *rand.Rand
}

// GEParams bundles the four chain parameters.
type GEParams struct {
	PGB, PBG, KGood, KBad float64
}

// Validate checks all probabilities are in [0,1] and the chain can move.
func (p GEParams) Validate() error {
	for name, v := range map[string]float64{
		"PGB": p.PGB, "PBG": p.PBG, "KGood": p.KGood, "KBad": p.KBad,
	} {
		if v < 0 || v > 1 {
			return fmt.Errorf("lossmodel: %s=%v outside [0,1]", name, v)
		}
	}
	return nil
}

// NewGilbertElliott builds the chain starting in the Good state.
func NewGilbertElliott(params GEParams, rng *rand.Rand) *GilbertElliott {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	if rng == nil {
		panic("lossmodel: nil rng")
	}
	return &GilbertElliott{
		PGB: params.PGB, PBG: params.PBG,
		KGood: params.KGood, KBad: params.KBad,
		state: Good, rng: rng,
	}
}

// Reset rewinds the chain to the Good state, retakes the parameters and
// reseeds its random stream in place, making the process bit-identical to
// NewGilbertElliott(params, rand.New(rand.NewSource(seed))) without
// reallocating — the hook world-reset paths use to rewind link loss.
func (g *GilbertElliott) Reset(params GEParams, seed int64) {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	g.PGB, g.PBG = params.PGB, params.PBG
	g.KGood, g.KBad = params.KGood, params.KBad
	g.state = Good
	g.rng.Seed(seed)
}

// Lost advances the chain one packet and reports whether it is lost.
func (g *GilbertElliott) Lost() bool {
	// Transition first, then emit according to the new state. (Emitting
	// before transitioning is the other common convention.)
	switch g.state {
	case Good:
		if g.rng.Float64() < g.PGB {
			g.state = Bad
		}
	case Bad:
		if g.rng.Float64() < g.PBG {
			g.state = Good
		}
	}
	k := g.KGood
	if g.state == Bad {
		k = g.KBad
	}
	return g.rng.Float64() < k
}
