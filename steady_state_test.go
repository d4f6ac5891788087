package repro_test

import "testing"

// steadyStates are the engine's steady-state 0 allocs/op contracts: each
// constructor builds and warms its world and returns one op — the body the
// Benchmark of the same name loops over.
var steadyStates = []struct {
	name string
	warm func(testing.TB) func()
}{
	{"AnalyzeStreaming", steadyAnalyzeStreaming},
	{"RatectlSecond", steadyRatectlSecond},
	{"RFTTransferSecond", steadyRFTTransferSecond},
	{"OveruseDetector", steadyOveruseDetector},
	{"FleetMerge", steadyFleetMerge},
	{"PortDrain", steadyPortDrain},
	{"NodeForward", steadyNodeForward},
}

// TestSteadyStateZeroAllocs is the allocation gate: a warmed measurement
// pipeline, GCC second, transfer second, detector pipeline, fleet merge, port
// drain and node walk must not allocate. It must not run in parallel with
// other tests — AllocsPerRun counts the whole process.
func TestSteadyStateZeroAllocs(t *testing.T) {
	for _, s := range steadyStates {
		t.Run(s.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(5, s.warm(t)); n != 0 {
				t.Errorf("%v allocs/op in steady state, want 0", n)
			}
		})
	}
}

// benchSteady is the Benchmark side of a steadyStates entry.
func benchSteady(b *testing.B, warm func(testing.TB) func()) {
	b.ReportAllocs()
	op := warm(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// reportMetric lets an op shared with the test report a benchmark metric.
func reportMetric(tb testing.TB, v float64, unit string) {
	if b, ok := tb.(*testing.B); ok {
		b.ReportMetric(v, unit)
	}
}
