package dummynet

import (
	"testing"

	"repro/internal/sim"
)

func TestQuantize(t *testing.T) {
	ms := sim.Millisecond
	cases := []struct {
		in   sim.Time
		want sim.Time
	}{
		{sim.Time(0), sim.Time(0)},
		{sim.Time(999 * sim.Microsecond), sim.Time(0)},
		{sim.Time(ms), sim.Time(ms)},
		{sim.Time(1700 * sim.Microsecond), sim.Time(ms)},
		{sim.Time(25*ms + 1), sim.Time(25 * ms)},
	}
	for _, c := range cases {
		if got := Quantize(c.in, ms); got != c.want {
			t.Fatalf("Quantize(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if Quantize(sim.Time(12345), 0) != sim.Time(12345) {
		t.Fatal("zero resolution must be identity")
	}
}
