package core

import (
	"fmt"
	"testing"

	"repro/internal/exp"
	"repro/internal/sim"
)

// digestResult flattens a loss-trace run into one comparable string. An
// arena run retains no trace, but at this scale the report's interval
// reservoir holds every inter-drop gap, so equal digests mean equal drop
// times; the burst stats pin which flows the drops hit.
func digestResult(res *ScenarioResult, err error) string {
	if err != nil {
		return "err: " + err.Error()
	}
	rep := *res.Report
	hist := *rep.Hist
	rep.Hist = nil
	return fmt.Sprintf("drops=%d events=%d forwarded=%d rtt=%v\nreport=%+v\nhist=%+v\nbursts=%+v",
		res.Drops, res.Events, res.Forwarded, res.MeanRTT, rep, hist, res.Bursts)
}

// TestResetEquivalence is the figure runners' half of the root
// world-lifecycle property test: the Figure 2, 3 and 7 worlds ride the
// arena's cached dumbbell (topo.NewDumbbell → Network.Reset), so a run
// with a nil arena, a run on a cold arena and a run on a warm arena — the
// second use of one arena, with a different seed run in between so the
// reset has real state to rewind — must be bit-identical.
func TestResetEquivalence(t *testing.T) {
	const seed, other = 7, 8
	check := func(t *testing.T, run func(seed int64, a *exp.Arena) string) {
		t.Helper()
		want := run(seed, nil)
		if want[:4] == "err:" {
			t.Fatalf("reference run failed; test exercises nothing: %s", want)
		}
		if got := run(seed, exp.NewArena()); got != want {
			t.Fatalf("cold arena diverged from nil arena:\n--- nil ---\n%s\n--- cold ---\n%s", want, got)
		}
		a := exp.NewArena()
		if run(other, a) == want {
			t.Fatal("a different seed reproduced the reference; the warm run would prove nothing")
		}
		if got := run(seed, a); got != want {
			t.Fatalf("warm arena diverged from nil arena:\n--- nil ---\n%s\n--- warm ---\n%s", want, got)
		}
	}

	t.Run("figure2", func(t *testing.T) {
		t.Parallel()
		check(t, func(seed int64, a *exp.Arena) string {
			return digestResult(runFigure2(Fig2Config{Seed: seed, Flows: 8,
				Duration: 8 * sim.Second, Warmup: 2 * sim.Second}, a))
		})
	})
	t.Run("figure3", func(t *testing.T) {
		t.Parallel()
		fig3 := func(noise sim.Duration) func(int64, *exp.Arena) string {
			return func(seed int64, a *exp.Arena) string {
				return digestResult(runFigure3(Fig3Config{Seed: seed, FlowsPerClass: 2,
					Duration: 8 * sim.Second, Warmup: 2 * sim.Second, ProcNoiseMax: noise}, a))
			}
		}
		check(t, fig3(0)) // the default 100 µs processing noise
		// Port.Reset detaches ProcNoise, so the warm run above only matches
		// if runFigure3 re-attached the hook — provided the hook matters:
		// near-zero noise on a warm world must change the outcome.
		a := exp.NewArena()
		noisy := fig3(0)(seed, a)
		if quiet := fig3(1)(seed, a); quiet == noisy {
			t.Fatal("processing noise does not change the run; the re-attach check is vacuous")
		}
	})
	t.Run("figure7", func(t *testing.T) {
		t.Parallel()
		check(t, func(seed int64, a *exp.Arena) string {
			// The seed only names the run (the competition has no random
			// stream); the RTT is what the in-between run perturbs.
			rtt := sim.Duration(40+seed) * sim.Millisecond
			res, err := runFigure7(Fig7Config{Seed: seed, FlowsPerClass: 4, RTT: rtt,
				Duration: 6 * sim.Second}, a)
			if err != nil {
				return "err: " + err.Error()
			}
			if res.Events == 0 || len(res.PacedMbps) == 0 {
				return "err: empty result"
			}
			return fmt.Sprintf("%+v", *res)
		})
	})
}
