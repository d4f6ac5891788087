package probe

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/planetlab"
	"repro/internal/sim"
)

// TestRunPinned holds the prober to exact runs. Each case runs the paper's
// dual-size protocol on one path and folds both Results and the
// scheduler's fired-event count and clock after the pair, so a prober that
// draws the path rng in another order, fires one event more or less, or
// leaves an event behind for the next run moves the hash:
// Fig4Result.Events and the probe-campaign digest count those events. The
// Results (the fold without the fired count) are those of the earlier
// prober that armed a delivery event per surviving probe.
func TestRunPinned(t *testing.T) {
	mesh := planetlab.NewMesh(1)
	meshPath := func(i, j int) func() *planetlab.Path {
		return func() *planetlab.Path { return mesh.NewPathProcess(i, j) }
	}
	for _, c := range []struct {
		name     string
		path     func() *planetlab.Path
		interval sim.Duration
		duration sim.Duration
		want     uint64
	}{
		// 14.8 ms RTT, one loss in 60,000 probes.
		{"lossless 9-8", meshPath(9, 8), 0, 30 * sim.Second, 0x3cc389d868c09b2e},
		// 18.2 ms RTT, loss episodes every ~2.5 s.
		{"episodes 1-3", meshPath(1, 3), 0, 30 * sim.Second, 0x58c991b1a1758f7e},
		// 301 ms RTT: each probe lands ~150 probe intervals after it left.
		{"long 0-22", meshPath(0, 22), 0, 30 * sim.Second, 0xf9cf77766c011ded},
		// A 4 s interval exceeds RTT + 1 s: the send due after the stop
		// time is still pending at the horizon and must not fire in the
		// 400 B run.
		{"sparse 5-4", meshPath(5, 4), 4 * sim.Second, 30 * sim.Second, 0xfc72ecd4dd2669c3},
		// Jitter up to 3 s outlasts the 1 s drain: probes that would land
		// after the horizon count as lost.
		{"late deliveries", func() *planetlab.Path {
			return planetlab.NewPath(planetlab.PathParams{
				RTT: 20 * sim.Millisecond, JitterMax: 3 * sim.Second,
			}, sim.NewRand(5))
		}, 0, 5 * sim.Second, 0xe2640e5e7c450046},
	} {
		s := sim.NewScheduler()
		m := MeasurePath(s, c.path(), RunConfig{Interval: c.interval, Duration: c.duration})
		if s.Pending() != 0 {
			t.Errorf("%s: %d events pending after the pair, want 0", c.name, s.Pending())
		}
		h := fnv.New64a()
		var buf [8]byte
		fold := func(v uint64) {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
		for _, r := range []Result{m.Small, m.Large} {
			fold(uint64(r.Sent))
			fold(uint64(r.Received))
			fold(uint64(r.Interval))
			fold(uint64(r.PathRTT))
			fold(uint64(len(r.LossSendTimes)))
			for _, ts := range r.LossSendTimes {
				fold(uint64(ts))
			}
		}
		fold(s.Fired())
		fold(uint64(s.Now()))
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: hash %#016x, want %#016x (sent %d/%d, received %d/%d, fired %d, now %v)",
				c.name, got, c.want, m.Small.Sent, m.Large.Sent,
				m.Small.Received, m.Large.Received, s.Fired(), s.Now())
		}
	}
}
