package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSmallFleet(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-worlds", "4", "-scenario", "dumbbell", "-duration", "6s",
		"-warmup", "2s", "-seed", "7",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "# fleet worlds=4") || !strings.Contains(out, "events_per_sec=") {
		t.Fatalf("missing fleet header:\n%s", out)
	}
	if !strings.Contains(out, "lambda=") || !strings.Contains(out, "bursts=") {
		t.Fatalf("missing burstiness summary:\n%s", out)
	}
}

// TestRunShardFlagInvariance pins the user-facing determinism claim: the
// full report (with -fingerprint) is byte-identical for -shards 1 and 4.
func TestRunShardFlagInvariance(t *testing.T) {
	args := []string{"-worlds", "4", "-scenario", "access-tree", "-duration", "6s",
		"-warmup", "2s", "-fingerprint"}
	var seq, par, stderr bytes.Buffer
	if code := run(append([]string{"-shards", "1"}, args...), &seq, &stderr); code != 0 {
		t.Fatalf("sequential: exit %d, %s", code, stderr.String())
	}
	if code := run(append([]string{"-shards", "4"}, args...), &par, &stderr); code != 0 {
		t.Fatalf("parallel: exit %d, %s", code, stderr.String())
	}
	norm := func(b *bytes.Buffer) string {
		// Drop the wall-clock fields; everything else must match exactly.
		lines := strings.Split(b.String(), "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "# fleet ") {
				lines[i] = l[:strings.Index(l, " elapsed=")]
			}
		}
		return strings.Join(lines, "\n")
	}
	if norm(&seq) != norm(&par) {
		t.Fatalf("report depends on -shards:\n%s\nvs\n%s", seq.String(), par.String())
	}
}

func TestRunListScenarios(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("list: exit %d", code)
	}
	if !strings.Contains(stdout.String(), "dumbbell") {
		t.Fatalf("catalog missing dumbbell:\n%s", stdout.String())
	}
}

// TestRunRejectsBadFlags pins the shared internal/cli contract: unknown
// flags AND invalid values both diagnose to stderr and exit 2.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"zero worlds", []string{"-worlds", "0"}, "-worlds"},
		{"span too wide", []string{"-rate-span", "1.0"}, "-rate-span"},
		{"negative span", []string{"-loss-span", "-0.5"}, "-loss-span"},
		{"NaN span", []string{"-rate-span", "NaN"}, "-rate-span"},
		{"negative shards", []string{"-shards", "-5"}, "-shards"},
		{"warmup past duration", []string{"-duration", "5s", "-warmup", "6s"}, "-warmup"},
	}
	for _, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.name, code, stderr.String())
			continue
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q missing %q", tc.name, stderr.String(), tc.want)
		}
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-scenario", "no-such", "-worlds", "1", "-duration", "2s", "-warmup", "1s"}, &stdout, &stderr); code != 1 {
		t.Errorf("unknown scenario: exit %d, want runtime failure 1 (stderr: %s)", code, stderr.String())
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	if !strings.Contains(stderr.String(), "Usage of fleet") {
		t.Fatalf("usage not printed: %s", stderr.String())
	}
}
