package probe

import (
	"strings"
	"testing"

	"repro/internal/planetlab"
	"repro/internal/sim"
)

func losslessPath() *planetlab.Path {
	return planetlab.NewPath(planetlab.PathParams{
		RTT: 50 * sim.Millisecond,
	}, sim.NewRand(1))
}

func burstyPath(seed int64) *planetlab.Path {
	return planetlab.NewPath(planetlab.PathParams{
		RTT:           100 * sim.Millisecond,
		EpisodeRate:   1.0,
		MeanEpisode:   15 * sim.Millisecond,
		LossInEpisode: 0.9,
		Background:    1e-4,
	}, sim.NewRand(seed))
}

func TestRunLosslessPath(t *testing.T) {
	s := sim.NewScheduler()
	res := Run(s, losslessPath(), RunConfig{Duration: 10 * sim.Second})
	if res.Sent == 0 || res.Received != res.Sent {
		t.Fatalf("sent=%d received=%d", res.Sent, res.Received)
	}
	if res.LossRate() != 0 || len(res.LossSendTimes) != 0 {
		t.Fatal("losses on a lossless path")
	}
	if res.Intervals() != nil || res.BackToBackFraction() != 0 {
		t.Fatal("interval stats on lossless path")
	}
	// 10 s at 1 ms default interval ⇒ ~10,000 probes.
	if res.Sent < 9990 || res.Sent > 10010 {
		t.Fatalf("sent = %d, want ≈10000", res.Sent)
	}
}

func TestRunDetectsBurstyLosses(t *testing.T) {
	s := sim.NewScheduler()
	res := Run(s, burstyPath(2), RunConfig{Duration: 60 * sim.Second})
	if len(res.LossSendTimes) < 50 {
		t.Fatalf("only %d losses detected", len(res.LossSendTimes))
	}
	if res.LossRate() <= 0 || res.LossRate() > 0.2 {
		t.Fatalf("loss rate = %v", res.LossRate())
	}
	// Clustering: a large share of gaps at the probe interval.
	if res.BackToBackFraction() < 0.4 {
		t.Fatalf("back-to-back fraction = %v; episodes should cluster losses",
			res.BackToBackFraction())
	}
	// Loss send times are on the CBR grid and increasing.
	for i, ts := range res.LossSendTimes {
		if int64(ts)%int64(res.Interval) != 0 {
			t.Fatalf("loss %d at off-grid time %v", i, ts)
		}
		if i > 0 && ts <= res.LossSendTimes[i-1] {
			t.Fatal("loss times not increasing")
		}
	}
}

func TestRunSequentialRunsAdvanceTime(t *testing.T) {
	s := sim.NewScheduler()
	p := losslessPath()
	Run(s, p, RunConfig{Duration: 5 * sim.Second})
	t0 := s.Now()
	Run(s, p, RunConfig{Duration: 5 * sim.Second})
	if s.Now() <= t0 {
		t.Fatal("second run did not advance time")
	}
}

// allLostPath loses every probe, so a run's loss send times are its whole
// send schedule.
func allLostPath() *planetlab.Path {
	return planetlab.NewPath(planetlab.PathParams{
		RTT: 10 * sim.Millisecond, Background: 1,
	}, sim.NewRand(7))
}

// TestRunEvenSpacing: probe k leaves at exactly start + k·interval, at the
// configured interval for every packet size.
func TestRunEvenSpacing(t *testing.T) {
	for _, interval := range []sim.Duration{sim.Millisecond, 3 * sim.Millisecond, 7 * sim.Millisecond} {
		for _, size := range []int{48, 400} {
			s := sim.NewScheduler()
			s.RunUntil(sim.Time(5 * sim.Millisecond)) // a run need not start at zero
			start := s.Now()
			res := Run(s, allLostPath(), RunConfig{PktSize: size, Interval: interval, Duration: sim.Second})
			if res.Interval != interval {
				t.Errorf("%v at %d B: interval %v", interval, size, res.Interval)
			}
			want := int64((sim.Second + interval - 1) / interval)
			if res.Sent != want || int64(len(res.LossSendTimes)) != want {
				t.Errorf("%v at %d B: sent %d, losses %d, want %d of each",
					interval, size, res.Sent, len(res.LossSendTimes), want)
				continue
			}
			for k, ts := range res.LossSendTimes {
				if ts != start.Add(sim.Duration(k)*interval) {
					t.Fatalf("%v at %d B: probe %d sent at %v, want %v", interval, size,
						k, ts, start.Add(sim.Duration(k)*interval))
				}
			}
		}
	}
}

// TestRunDurationStops: 10 ms interval, 55 ms run: probes at 0..50 ms; the
// send due at 60 ms sees the stop time and arms nothing.
func TestRunDurationStops(t *testing.T) {
	s := sim.NewScheduler()
	res := Run(s, allLostPath(), RunConfig{Interval: 10 * sim.Millisecond, Duration: 55 * sim.Millisecond})
	if res.Sent != 6 || s.Fired() != 6 || s.Pending() != 0 {
		t.Fatalf("sent %d, fired %d, pending %d; want 6, 6 (five sends and the stop), 0",
			res.Sent, s.Fired(), s.Pending())
	}
}

// TestRunReportsDrops: on a path that loses everything, every probe is
// reported lost.
func TestRunReportsDrops(t *testing.T) {
	s := sim.NewScheduler()
	path := allLostPath()
	res := Run(s, path, RunConfig{Interval: 10 * sim.Millisecond, Duration: 100 * sim.Millisecond})
	if res.Sent != 10 || res.Received != 0 || len(res.LossSendTimes) != 10 || path.Losses != 10 {
		t.Fatalf("sent %d received %d losses %d path losses %d, want 10 sent, all lost",
			res.Sent, res.Received, len(res.LossSendTimes), path.Losses)
	}
	if s.Fired() != 10 || s.Pending() != 0 {
		t.Fatalf("fired %d pending %d, want 10 (nine sends and the stop), 0", s.Fired(), s.Pending())
	}
}

// TestRunCancelsPendingSend: with an interval longer than the drain, the
// send due after the stop time is still queued when the run returns. Run
// cancels it, so the scheduler's next run does not fire it.
func TestRunCancelsPendingSend(t *testing.T) {
	s := sim.NewScheduler()
	res := Run(s, losslessPath(), RunConfig{Interval: 4 * sim.Second, Duration: 30 * sim.Second})
	// Probes at 0, 4, …, 28 s; the next send would be due at 32 s, after
	// the 31.05 s horizon.
	if res.Sent != 8 || res.Received != 8 {
		t.Fatalf("sent %d received %d, want 8/8", res.Sent, res.Received)
	}
	if s.Pending() != 0 || s.Fired() != 7 {
		t.Fatalf("pending %d fired %d, want 0 and 7 (the sends after the inline first)", s.Pending(), s.Fired())
	}
}

// TestRunLateDeliveriesCountAsLost: a probe that would land after the
// horizon counts as lost, and the run leaves nothing queued for the
// scheduler's next run.
func TestRunLateDeliveriesCountAsLost(t *testing.T) {
	s := sim.NewScheduler()
	path := planetlab.NewPath(planetlab.PathParams{
		RTT: 20 * sim.Millisecond, JitterMax: 3 * sim.Second,
	}, sim.NewRand(5))
	res := Run(s, path, RunConfig{Duration: 5 * sim.Second})
	if path.Losses != 0 || res.Received >= res.Sent {
		t.Fatalf("path lost %d, received %d of %d; want late probes counted as lost",
			path.Losses, res.Received, res.Sent)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events pending after the run, want 0", s.Pending())
	}
}

func TestValidateAcceptsSimilarRuns(t *testing.T) {
	s := sim.NewScheduler()
	p := burstyPath(3)
	m := MeasurePath(s, p, RunConfig{Duration: 120 * sim.Second})
	if !m.Valid {
		t.Fatalf("similar dual runs rejected: A p=%v b2b=%v, B p=%v b2b=%v",
			m.Small.LossRate(), m.Small.BackToBackFraction(),
			m.Large.LossRate(), m.Large.BackToBackFraction())
	}
	if m.Small.PktSize != 48 || m.Large.PktSize != 400 {
		t.Fatalf("packet sizes: %d/%d", m.Small.PktSize, m.Large.PktSize)
	}
}

func TestValidateRejectsDissimilarLossRates(t *testing.T) {
	a := Result{Sent: 10000, Received: 9000, Interval: sim.Millisecond} // 10%
	b := Result{Sent: 10000, Received: 9990, Interval: sim.Millisecond} // 0.1%
	err := Validate(a, b)
	if err == nil {
		t.Fatal("dissimilar rates accepted")
	}
	if !strings.Contains(err.Error(), "loss rates dissimilar") {
		t.Fatalf("wrong reason: %v", err)
	}
}

func TestValidateRejectsDissimilarBurstiness(t *testing.T) {
	// Same loss rate; A's losses back to back, B's spread out.
	mk := func(spread sim.Duration) Result {
		r := Result{Sent: 100000, Received: 99900, Interval: sim.Millisecond}
		for i := 0; i < 100; i++ {
			r.LossSendTimes = append(r.LossSendTimes,
				sim.Time(int64(i)*int64(spread)))
		}
		return r
	}
	a := mk(sim.Millisecond)       // all gaps = interval
	b := mk(500 * sim.Millisecond) // all gaps huge
	err := Validate(a, b)
	if err == nil {
		t.Fatal("dissimilar burstiness accepted")
	}
	if !strings.Contains(err.Error(), "burstiness") {
		t.Fatalf("wrong reason: %v", err)
	}
}

func TestValidateAcceptsBothLossless(t *testing.T) {
	a := Result{Sent: 10000, Received: 10000}
	b := Result{Sent: 10000, Received: 10000}
	if err := Validate(a, b); err != nil {
		t.Fatalf("lossless pair rejected: %v", err)
	}
}

func TestValidateZeroVsNonzero(t *testing.T) {
	a := Result{Sent: 10000, Received: 10000} // 0
	b := Result{Sent: 10000, Received: 9000}  // 10%
	if err := Validate(a, b); err == nil {
		t.Fatal("zero-vs-10% accepted")
	}
}

func TestResultLossRateEmpty(t *testing.T) {
	if (Result{}).LossRate() != 0 {
		t.Fatal("empty result loss rate")
	}
}

func TestRunValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"nil scheduler":     func() { Run(nil, losslessPath(), RunConfig{}) },
		"nil path":          func() { Run(sim.NewScheduler(), nil, RunConfig{}) },
		"negative interval": func() { Run(sim.NewScheduler(), losslessPath(), RunConfig{Interval: -1}) },
		"negative duration": func() { Run(sim.NewScheduler(), losslessPath(), RunConfig{Duration: -1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// TestRunPacketSizeValidation: a negative packet size is refused; zero takes
// the 48 B default.
func TestRunPacketSizeValidation(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative packet size: no panic")
			}
		}()
		Run(sim.NewScheduler(), losslessPath(), RunConfig{PktSize: -1})
	}()
	res := Run(sim.NewScheduler(), losslessPath(), RunConfig{Duration: 10 * sim.Millisecond})
	if res.PktSize != 48 {
		t.Errorf("zero packet size ran at %d B, want 48", res.PktSize)
	}
}
