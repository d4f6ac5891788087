package tcptrace

import (
	"testing"

	"repro/internal/sim"
)

func TestRunComparesMethodologies(t *testing.T) {
	res, err := Run(Config{Flows: 16, Duration: 40 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops < 10 || res.Retransmissions < 10 {
		t.Fatalf("too few events: drops=%d retr=%d", res.Drops, res.Retransmissions)
	}
	// Both views must exist and both must show super-Poisson burstiness.
	if res.Truth.CoV < 1.2 {
		t.Fatalf("truth CoV = %v", res.Truth.CoV)
	}
	if res.FromTCP.N < 2 {
		t.Fatal("tcp-trace analysis empty")
	}
	// The methodology gap the paper predicts: the TCP-trace event count is
	// a biased estimate of the true drop count. It under-counts when a
	// whole loss burst collapses into a recovery's worth of
	// retransmissions, and over-counts when go-back-N after a timeout
	// resends packets that were never dropped. Either way the counts must
	// differ materially.
	ratio := float64(res.Retransmissions) / float64(res.Drops)
	if ratio > 0.9 && ratio < 1.1 {
		t.Fatalf("tcp-trace count within 10%% of truth (%d vs %d); expected a methodology gap",
			res.Retransmissions, res.Drops)
	}
	// And the timing structure differs: retransmissions are paced by
	// recovery RTTs, so the inferred clustering departs from the truth.
	diff := res.Truth.FracBelow001 - res.FromTCP.FracBelow001
	if diff < 0 {
		diff = -diff
	}
	if diff < 0.01 {
		t.Logf("warning: clustering gap only %.3f", diff)
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(Config{Flows: 12, Duration: 20 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Config{Flows: 12, Duration: 20 * sim.Second})
	if err != nil {
		t.Fatal(err)
	}
	if a.Drops != b.Drops || a.Retransmissions != b.Retransmissions {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d",
			a.Drops, a.Retransmissions, b.Drops, b.Retransmissions)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.fillDefaults()
	if c.Flows != 8 || c.Duration != 60*sim.Second {
		t.Fatalf("defaults: %+v", c)
	}
}
