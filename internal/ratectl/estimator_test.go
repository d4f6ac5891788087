package ratectl

import (
	"testing"

	"repro/internal/sim"
)

// rampGroups feeds n groups whose one-way delay grows by slope ms per
// group (0 = flat), spaced 5 ms apart in send time, and returns the next
// arrival time.
func rampGroups(est GradientEstimator, start sim.Time, n int, slope float64) sim.Time {
	at := start
	for i := 0; i < n; i++ {
		extra := sim.Duration(slope * float64(ms))
		at = at.Add(5*ms + extra)
		est.Update(GroupDelta{
			SendDelta:    5 * ms,
			ArrivalDelta: 5*ms + extra,
			Arrival:      at,
		})
	}
	return at
}

// TestKalmanRampRecovery: a sustained 1 ms/group queuing ramp must drive
// the per-group state to ≈1 ms, and a return to flat deltas must bring it
// back near zero — the filter recovers rather than latching.
func TestKalmanRampRecovery(t *testing.T) {
	k := NewKalmanEstimator()
	at := rampGroups(k, sim.Time(ms), 80, 1.0)
	if got := k.offset; got < 0.5 || got > 1.5 {
		t.Fatalf("per-group offset after ramp = %.3f ms, want ≈1", got)
	}
	// The detector signal is the per-group offset scaled by the capped
	// observation count.
	if want := k.offset * kalmanMaxDeltas; k.scaled != want {
		t.Fatalf("scaled offset = %.3f, want %.3f", k.scaled, want)
	}
	rampGroups(k, at, 400, 0)
	if got := k.offset; got < -0.2 || got > 0.2 {
		t.Fatalf("per-group offset after recovery = %.3f ms, want ≈0", got)
	}
}

// TestTrendlineRampRecovery: same property for the regression filter.
func TestTrendlineRampRecovery(t *testing.T) {
	tr := &TrendlineEstimator{}
	at := rampGroups(tr, sim.Time(ms), 80, 1.0)
	if got := tr.off; got < 5 {
		t.Fatalf("trendline offset after ramp = %.3f, want strongly positive", got)
	}
	rampGroups(tr, at, 400, 0)
	if got := tr.off; got < -1 || got > 1 {
		t.Fatalf("trendline offset after recovery = %.3f, want ≈0", got)
	}
}

// TestEstimatorSignAgreement is the differential property the two filters
// must share: under seeded random jitter with a small consistent drift,
// both report an offset whose sign matches the drift.
func TestEstimatorSignAgreement(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		for _, drift := range []float64{0.4, -0.4} {
			k := NewKalmanEstimator()
			tr := &TrendlineEstimator{}
			rng := sim.NewRand(seed)
			at := sim.Time(ms)
			for i := 0; i < 300; i++ {
				jitter := (rng.Float64()*2 - 1) * 1.5 // U(−1.5, 1.5) ms
				extra := sim.Duration((drift + jitter) * float64(ms))
				at = at.Add(5*ms + extra)
				d := GroupDelta{SendDelta: 5 * ms, ArrivalDelta: 5*ms + extra, Arrival: at}
				k.Update(d)
				tr.Update(d)
			}
			if drift > 0 {
				if k.scaled <= 0 || tr.off <= 0 {
					t.Fatalf("seed %d drift %+.1f: kalman %.3f, trendline %.3f — want both positive",
						seed, drift, k.scaled, tr.off)
				}
			} else {
				if k.scaled >= 0 || tr.off >= 0 {
					t.Fatalf("seed %d drift %+.1f: kalman %.3f, trendline %.3f — want both negative",
						seed, drift, k.scaled, tr.off)
				}
			}
		}
	}
}

// TestEstimatorReset: the Kalman filter, which a GCC receiver rewinds on
// construction, returns to a zero offset.
func TestEstimatorReset(t *testing.T) {
	k := NewKalmanEstimator()
	rampGroups(k, sim.Time(ms), 50, 1.0)
	if k.scaled == 0 {
		t.Fatal("setup produced no offset")
	}
	k.Reset()
	if k.scaled != 0 || k.offset != 0 {
		t.Fatalf("offset after Reset = %.3f (raw %.3f), want 0", k.scaled, k.offset)
	}
}

// TestGroupingFragmentationInvariant: the burst grouper's boundaries and
// deltas depend only on timestamps, so splitting packets into
// same-timestamp fragments — or feeding a tight burst slightly out of
// order — produces the identical GroupDelta sequence.
func TestGroupingFragmentationInvariant(t *testing.T) {
	type pkt struct {
		send, arrive sim.Time
		size         int
	}
	// Bursts of three packets 1 ms apart (well inside BurstWindow),
	// bursts separated by 10 ms. Arrival = send + 20 ms + a per-burst
	// queue term so the deltas are non-trivial.
	var whole []pkt
	for b := 0; b < 8; b++ {
		base := sim.Time(ms).Add(sim.Duration(b) * 10 * ms)
		queue := sim.Duration(b%3) * ms
		for i := 0; i < 3; i++ {
			s := base.Add(sim.Duration(i) * ms)
			whole = append(whole, pkt{send: s, arrive: s.Add(20*ms + queue), size: 900})
		}
	}
	// Fragmented: every packet split into three same-timestamp thirds.
	var frag []pkt
	for _, p := range whole {
		for i := 0; i < 3; i++ {
			frag = append(frag, pkt{send: p.send, arrive: p.arrive, size: p.size / 3})
		}
	}
	// Shuffled: within each burst, feed the packets last-first. Every
	// inter-burst gap exceeds BurstWindow from every member, so boundaries
	// cannot move.
	var shuffled []pkt
	for b := 0; b < len(whole); b += 3 {
		shuffled = append(shuffled, whole[b+2], whole[b], whole[b+1])
	}

	collect := func(pkts []pkt) []GroupDelta {
		var ia InterArrival
		var out []GroupDelta
		for _, p := range pkts {
			if d, ok := ia.Add(p.send, p.arrive, p.size); ok {
				out = append(out, d)
			}
		}
		return out
	}
	ref := collect(whole)
	if len(ref) == 0 {
		t.Fatalf("reference produced no groups")
	}
	for name, variant := range map[string][]pkt{"fragmented": frag, "shuffled": shuffled} {
		got := collect(variant)
		if len(got) != len(ref) {
			t.Fatalf("%s: %d groups, want %d", name, len(got), len(ref))
		}
		for i := range ref {
			if got[i].SendDelta != ref[i].SendDelta || got[i].ArrivalDelta != ref[i].ArrivalDelta ||
				got[i].Arrival != ref[i].Arrival || got[i].SizeDelta != ref[i].SizeDelta {
				t.Fatalf("%s: group %d = %+v, want %+v", name, i, got[i], ref[i])
			}
		}
	}
}

// TestGroupingBurstWindow: packets inside the send-time window join the
// group; the first packet beyond it opens a new one and completes the
// comparison.
func TestGroupingBurstWindow(t *testing.T) {
	var ia InterArrival
	base := sim.Time(ms)
	if _, ok := ia.Add(base, base.Add(20*ms), 100); ok {
		t.Fatalf("first packet completed a group")
	}
	if _, ok := ia.Add(base.Add(BurstWindow), base.Add(21*ms), 100); ok {
		t.Fatalf("packet at the window edge should extend, not complete")
	}
	if _, ok := ia.Add(base.Add(BurstWindow+ms), base.Add(22*ms), 100); ok {
		t.Fatalf("second group open: no comparison exists yet")
	}
	d, ok := ia.Add(base.Add(3*BurstWindow), base.Add(30*ms), 100)
	if !ok {
		t.Fatalf("third group should complete the first comparison")
	}
	if d.SendDelta != ms || d.ArrivalDelta != ms {
		t.Fatalf("deltas = %+v, want send/arrival 1ms", d)
	}
}
