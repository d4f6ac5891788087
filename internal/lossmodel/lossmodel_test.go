package lossmodel

import (
	"math"
	"math/rand"
	"testing"
)

func TestGEParamsValidate(t *testing.T) {
	if err := (GEParams{PGB: 0.5, PBG: 0.5, KBad: 1}).Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := []GEParams{
		{PGB: -0.1}, {PBG: 2}, {KGood: -1}, {KBad: 1.5},
	}
	for _, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("invalid params accepted: %+v", p)
		}
	}
}

// losses draws n packets from g and returns how many were lost and the
// lengths of its runs of consecutive losses.
func losses(g *GilbertElliott, n int) (lost int, bursts []int) {
	run := 0
	for i := 0; i < n; i++ {
		if g.Lost() {
			lost++
			run++
		} else if run > 0 {
			bursts = append(bursts, run)
			run = 0
		}
	}
	if run > 0 {
		bursts = append(bursts, run)
	}
	return lost, bursts
}

// TestGilbertElliottLongRunLossRate checks the chain's long-run loss rate
// against its closed form: the stationary Bad probability
// πB = PGB/(PGB+PBG) weights KBad, and 1−πB weights KGood.
func TestGilbertElliottLongRunLossRate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	params := GEParams{PGB: 0.005, PBG: 0.2, KGood: 0.0, KBad: 0.8}
	const n = 500000
	lost, _ := losses(NewGilbertElliott(params, rng), n)
	got := float64(lost) / n
	pb := params.PGB / (params.PGB + params.PBG)
	want := pb*params.KBad + (1-pb)*params.KGood
	if math.Abs(got-want)/want > 0.1 {
		t.Fatalf("GE loss rate = %v, want ≈ %v", got, want)
	}
}

func TestGilbertElliottBurstier(t *testing.T) {
	// Independent loss at GE's mean rate p has geometric bursts of mean
	// 1/(1−p); GE's sticky Bad state must give much longer ones.
	params := GEParams{PGB: 0.002, PBG: 0.1, KGood: 0, KBad: 1}
	lost, bursts := losses(NewGilbertElliott(params, rand.New(rand.NewSource(4))), 300000)
	if len(bursts) == 0 {
		t.Fatal("no bursts generated")
	}
	rate := float64(lost) / 300000
	geMean := float64(lost) / float64(len(bursts))
	if iidMean := 1 / (1 - rate); geMean < 3*iidMean {
		t.Fatalf("GE bursts (%v) not much longer than independent loss (%v)", geMean, iidMean)
	}
}

func TestGilbertElliottStateMachine(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Deterministic chain: always flips state, loses iff Bad.
	ge := NewGilbertElliott(GEParams{PGB: 1, PBG: 1, KGood: 0, KBad: 1}, rng)
	// Start Good, transition-then-emit: the first packet moves the chain
	// Good->Bad, so it is lost; a chain that started Bad would pass it.
	want := []bool{true, false, true, false, true, false}
	for i, w := range want {
		if got := ge.Lost(); got != w {
			t.Fatalf("alternating chain packet %d lost=%v, want %v", i, got, w)
		}
	}
}

func TestGEStateString(t *testing.T) {
	if Good.String() != "good" || Bad.String() != "bad" {
		t.Fatal("state strings wrong")
	}
}

func TestGilbertElliottPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewGilbertElliott(GEParams{PGB: 2}, rand.New(rand.NewSource(1))) },
		func() { NewGilbertElliott(GEParams{}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

// Property: generated sequences are reproducible for a fixed seed.
func TestGEDeterminism(t *testing.T) {
	gen := func(seed int64) *GilbertElliott {
		return NewGilbertElliott(GEParams{PGB: 0.01, PBG: 0.3, KBad: 0.9},
			rand.New(rand.NewSource(seed)))
	}
	a, b := gen(11), gen(11)
	for i := 0; i < 10000; i++ {
		if a.Lost() != b.Lost() {
			t.Fatalf("diverged at %d", i)
		}
	}
}

// TestGilbertBurstLengthDistribution pins the simple-Gilbert (KBad=1,
// KGood=0) burst-length law to its analytic form: with every Bad packet
// lost, an observed loss burst is exactly one Bad-state dwell, which is
// geometric with parameter PBG — mean 1/PBG and tail
// P(len > k) = (1-PBG)^k. This is the property the netsim wire-dropper
// inherits, and what makes the link-layer losses sub-RTT-clustered.
func TestGilbertBurstLengthDistribution(t *testing.T) {
	params := GEParams{PGB: 0.002, PBG: 0.2, KGood: 0, KBad: 1}
	lost, bursts := losses(NewGilbertElliott(params, rand.New(rand.NewSource(9))), 2_000_000)
	if len(bursts) < 1000 {
		t.Fatalf("only %d bursts; not enough samples", len(bursts))
	}

	got := float64(lost) / float64(len(bursts))
	want := 1 / params.PBG
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("mean burst length = %v, want ≈ %v (1/PBG)", got, want)
	}

	// Geometric tail: the survival fraction at k must match (1-PBG)^k.
	for _, k := range []int{1, 2, 5, 10} {
		over := 0
		for _, b := range bursts {
			if b > k {
				over++
			}
		}
		gotTail := float64(over) / float64(len(bursts))
		wantTail := math.Pow(1-params.PBG, float64(k))
		if math.Abs(gotTail-wantTail) > 0.02 {
			t.Fatalf("P(burst > %d) = %v, want ≈ %v", k, gotTail, wantTail)
		}
	}
}
