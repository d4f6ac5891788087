package main

import (
	"reflect"
	"testing"
)

func TestDanglingTestNames(t *testing.T) {
	defined := map[string]bool{
		"TestSteadyStateZeroAllocs":     true,
		"BenchmarkSweepFigure2Parallel": true,
		"FuzzReadCSV":                   true,
		"ExampleRunFleet":               true,
	}
	for _, tc := range []struct {
		name string
		docs map[string]string
		want []string
	}{
		{"defined names pass",
			map[string]string{"README.md": "`TestSteadyStateZeroAllocs`, FuzzReadCSV and ExampleRunFleet"},
			nil},
		{"deleted benchmark fails",
			map[string]string{"README.md": "intro\n`BenchmarkSweepFigure2Sequential` measures it"},
			[]string{"README.md:2: cites BenchmarkSweepFigure2Sequential, which no _test.go defines"}},
		{"brace shorthand is not a name",
			map[string]string{"README.md": "the `BenchmarkSweepFigure2{Sequential,Parallel}` pair"},
			[]string{"README.md:1: cites BenchmarkSweepFigure2, which no _test.go defines"}},
		{"wildcards and plain words pass",
			map[string]string{"README.md": "every `Test*`/`Benchmark*` function; Testing, Benchmarks, Examples, myTestFoo"},
			nil},
		{"history and plans are exempt",
			map[string]string{"CHANGES.md": "TestGone", "ROADMAP.md": "FuzzPortScript", "PLAN.md": "- [ ] delete BenchmarkGone"},
			nil},
		{"findings sorted by file",
			map[string]string{"b.md": "TestB", "a.md": "TestA"},
			[]string{"a.md:1: cites TestA, which no _test.go defines", "b.md:1: cites TestB, which no _test.go defines"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := danglingTestNames(tc.docs, defined); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("got %q, want %q", got, tc.want)
			}
		})
	}
}
