package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestRunSingleArtifact(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "1"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "==== Table 1: PlanetLab sites ====") {
		t.Fatalf("missing banner:\n%s", out)
	}
	if got := strings.Count(out, "planetlab"); got < 20 {
		t.Fatalf("site rows = %d:\n%s", got, out)
	}
}

func TestRunEq12Table(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fig", "5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "eq1_rate") {
		t.Fatalf("missing table header:\n%s", stdout.String())
	}
}

// stripTimings removes the wall-clock lines so runs at different worker
// counts can be compared byte for byte.
var timingRe = regexp.MustCompile(`(?m)^---- .* done in .* ----$`)

func stripTimings(s string) string { return timingRe.ReplaceAllString(s, "") }

func TestRunParallelMatchesSequential(t *testing.T) {
	// Two fast artifacts: Table 1 and the Eq. 1/2 visibility table. The
	// parallel scheduler must not change a byte of the rendered series,
	// and must print them in artifact order; -workers 1 is the sequential
	// run.
	var par, seql, stderr bytes.Buffer
	if code := run([]string{"-fig", "1,5", "-workers", "1"}, &seql, &stderr); code != 0 {
		t.Fatalf("seq exit %d: %s", code, stderr.String())
	}
	if code := run([]string{"-fig", "1,5", "-workers", "2"}, &par, &stderr); code != 0 {
		t.Fatalf("par exit %d: %s", code, stderr.String())
	}
	if stripTimings(seql.String()) != stripTimings(par.String()) {
		t.Fatalf("parallel output diverges from sequential:\n%q\nvs\n%q",
			seql.String(), par.String())
	}
	if !strings.Contains(par.String(), "Table 1") ||
		strings.Index(par.String(), "Table 1") > strings.Index(par.String(), "Eq. 1/2") {
		t.Fatalf("artifact order broken:\n%s", par.String())
	}
}

func TestRunUsageOnNoSelection(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(stderr.String(), "-fig") {
		t.Fatalf("usage not printed:\n%s", stderr.String())
	}
	if code := run([]string{"-bogus"}, &stdout, &stderr); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
}

// TestRunFlagValidation: malformed selections must fail loudly with a
// clear message instead of being silently ignored.
func TestRunFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"fig out of range", []string{"-fig", "9"}, "unknown -fig value 9"},
		{"fig zero", []string{"-fig", "0"}, "unknown -fig value 0"},
		{"fig negative", []string{"-fig", "-1"}, "unknown -fig value -1"},
		{"fig not a number", []string{"-fig", "2,x"}, `bad -fig value "x"`},
		{"fig empty token", []string{"-fig", "2,,3"}, `bad -fig value ""`},
		{"fig unknown among valid", []string{"-fig", "2,3,42"}, "unknown -fig value 42"},
		{"reps zero", []string{"-fig", "1", "-reps", "0"}, "-reps must be at least 1"},
		{"reps negative", []string{"-fig", "1", "-reps", "-3"}, "-reps must be at least 1"},
		{"workers negative", []string{"-fig", "1", "-workers", "-3"}, "-workers must not be negative"},
		{"unknown scenario", []string{"-scenario", "moebius-strip"}, `unknown scenario "moebius-strip"`},
		{"unknown scenario among valid", []string{"-scenario", "dumbbell,nope"}, `unknown scenario "nope"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantErr) {
				t.Fatalf("stderr %q missing %q", stderr.String(), tc.wantErr)
			}
		})
	}
	// The unknown-scenario error must list what is available.
	var stdout, stderr bytes.Buffer
	run([]string{"-scenario", "nope"}, &stdout, &stderr)
	if !strings.Contains(stderr.String(), "parking-lot") {
		t.Fatalf("scenario error does not list the registry:\n%s", stderr.String())
	}
}

func TestRunScenarioList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	for _, name := range []string{
		"dumbbell", "parking-lot", "access-tree", "hetero-mesh",
		"wifi-gilbert", "cellular-trace", "flaky-backbone",
	} {
		if !strings.Contains(stdout.String(), name) {
			t.Fatalf("catalog missing %q:\n%s", name, stdout.String())
		}
	}
}

// TestRunWithProfiles exercises the -cpuprofile/-memprofile plumbing: a
// run with both flags must succeed and leave two non-empty pprof files.
func TestRunWithProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-fig", "5", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile missing: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
	}
}

// TestRunProfileBadPath: an unwritable profile path must fail up front
// with a clear message, before any simulation runs.
func TestRunProfileBadPath(t *testing.T) {
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-fig", "5", flag, filepath.Join(t.TempDir(), "no", "such", "dir", "p")},
			&stdout, &stderr)
		if code != 2 {
			t.Fatalf("%s bad path: exit %d, want 2", flag, code)
		}
		if !strings.Contains(stderr.String(), flag[1:]) {
			t.Fatalf("%s error not attributed:\n%s", flag, stderr.String())
		}
	}
}

func TestRunScenarioArtifact(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "access-tree", "-quick"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "==== Scenario: access-tree ====") {
		t.Fatalf("missing banner:\n%s", out)
	}
	if !strings.Contains(out, "# topology:") || !strings.Contains(out, "frac<0.01RTT") {
		t.Fatalf("scenario render incomplete:\n%s", out)
	}
}

// seedBlind lists the artifacts whose output does not depend on -seed,
// each with the reason. An artifact that gains a seed must leave the
// list; TestSeedBlindArtifacts fails until it does.
var seedBlind = map[string]struct {
	args []string
	why  string
}{
	"figure8": {[]string{"-fig", "8", "-quick"},
		"apps.RunParallel draws nothing random; a cell's runs differ only by apps.Sweep's i·25 µs RTT shift"},
	"xtrace": {[]string{"-xtrace", "-quick"},
		"tcptrace.Run draws nothing random; its flow RTTs are a fixed ±20% spread and its starts 250 ms apart"},
}

// TestSeedBlindArtifacts runs each seed-blind artifact at two seeds and
// requires the same output, timing lines aside.
func TestSeedBlindArtifacts(t *testing.T) {
	for name, a := range seedBlind {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out := func(seed string) string {
				var stdout, stderr bytes.Buffer
				if code := run(append([]string{"-seed", seed}, a.args...), &stdout, &stderr); code != 0 {
					t.Fatalf("-seed %s: exit %d, stderr:\n%s", seed, code, stderr.String())
				}
				return stripTimings(stdout.String())
			}
			if s1, s2 := out("1"), out("2"); s1 != s2 {
				t.Fatalf("%s now depends on -seed; drop it from seedBlind (%s):\n%s\nvs\n%s", name, a.why, s1, s2)
			}
		})
	}
}
