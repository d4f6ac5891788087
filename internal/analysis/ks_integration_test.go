package analysis

import (
	"testing"

	"repro/internal/sim"
)

func TestReportKSRejectsBurstyAcceptsPoisson(t *testing.T) {
	// Bursty trace: clusters of 10 losses, 1 s apart; RTT 100 ms.
	var bursty []sim.Time
	for b := 0; b < 50; b++ {
		base := sim.Time(int64(b) * int64(sim.Second))
		for i := 0; i < 10; i++ {
			bursty = append(bursty, base.Add(sim.Duration(i)*100*sim.Microsecond))
		}
	}
	rb, err := analyzeTimes(bursty, 100*sim.Millisecond, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rb.RejectsPoisson {
		t.Fatalf("bursty trace accepted as Poisson (D=%v)", rb.KSDistance)
	}

	// Poisson trace with the same count.
	rng := sim.NewRand(8)
	var poisson []sim.Time
	cur := sim.Time(0)
	for i := 0; i < 500; i++ {
		cur = cur.Add(sim.Exponential(rng, 100*sim.Millisecond))
		poisson = append(poisson, cur)
	}
	rp, err := analyzeTimes(poisson, 100*sim.Millisecond, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rp.RejectsPoisson {
		t.Fatalf("Poisson trace rejected (D=%v)", rp.KSDistance)
	}
	if rb.KSDistance <= rp.KSDistance {
		t.Fatalf("bursty D (%v) not above Poisson D (%v)", rb.KSDistance, rp.KSDistance)
	}
}
