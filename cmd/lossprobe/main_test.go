package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunMeasuresPaths(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-paths", "3", "-duration", "5s", "-seed", "3"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(lines) != 4 { // header + 3 paths
		t.Fatalf("rows:\n%s", stdout.String())
	}
	if !strings.HasPrefix(lines[0], "# src") {
		t.Fatalf("missing header: %s", lines[0])
	}
}

func TestRunWorkerInvariance(t *testing.T) {
	args := []string{"-paths", "4", "-duration", "5s", "-seed", "7"}
	var seq, par, stderr bytes.Buffer
	if code := run(append([]string{"-workers", "1"}, args...), &seq, &stderr); code != 0 {
		t.Fatalf("sequential: exit %d, %s", code, stderr.String())
	}
	if code := run(append([]string{"-workers", "4"}, args...), &par, &stderr); code != 0 {
		t.Fatalf("parallel: exit %d, %s", code, stderr.String())
	}
	if !bytes.Equal(seq.Bytes(), par.Bytes()) {
		t.Fatalf("output depends on worker count:\n%s\nvs\n%s", seq.String(), par.String())
	}
}

func TestRunSinglePathAndList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-src", "0", "-dst", "21", "-duration", "5s"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if got := len(strings.Split(strings.TrimSpace(stdout.String()), "\n")); got != 2 {
		t.Fatalf("rows = %d:\n%s", got, stdout.String())
	}

	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("list: exit %d", code)
	}
	if got := len(strings.Split(strings.TrimSpace(stdout.String()), "\n")); got != 26 {
		t.Fatalf("site rows = %d", got)
	}

	if code := run([]string{"-src", "5", "-dst", "5"}, &stdout, &stderr); code != 2 {
		t.Fatalf("self pair: exit %d", code)
	}
}

// TestRunLongInterval: an interval of minutes is a valid probe schedule.
func TestRunLongInterval(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-interval", "500s", "-duration", "1h", "-paths", "1"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if got := len(strings.Split(strings.TrimSpace(stdout.String()), "\n")); got != 2 {
		t.Fatalf("rows = %d:\n%s", got, stdout.String())
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
		{"zero paths", []string{"-paths", "0"}, "-paths"},
		{"zero duration", []string{"-duration", "0s"}, "-duration"},
		{"negative workers", []string{"-workers", "-2"}, "-workers"},
		{"src without dst", []string{"-src", "1"}, "-src and -dst"},
		{"dst without src", []string{"-dst", "2"}, "-src and -dst"},
		{"negative src", []string{"-src", "-1", "-dst", "2"}, "invalid site pair"},
		{"negative dst", []string{"-src", "1", "-dst", "-3"}, "invalid site pair"},
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
}
