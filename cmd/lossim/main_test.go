package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunWritesTraceAndSummary(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.csv")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-env", "ns2", "-flows", "4", "-duration", "8s", "-warmup", "1s",
		"-seed", "1", "-o", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 3 {
		t.Fatalf("trace too short:\n%s", data)
	}
	if !strings.Contains(stderr.String(), "env=ns2 drops=") {
		t.Fatalf("missing summary: %s", stderr.String())
	}
}

func TestRunDummynetToStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-env", "dummynet", "-flows-per-class", "2", "-duration", "10s",
		"-warmup", "2s", "-summary=false",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Fatalf("summary printed despite -summary=false: %s", stderr.String())
	}
	if !strings.Contains(stdout.String(), "\n") {
		t.Fatal("no CSV on stdout")
	}
}

// TestRunRejectsBadFlags pins the shared internal/cli contract: unknown
// flags AND invalid values both diagnose to stderr and exit 2.
func TestRunRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the stderr diagnosis
	}{
		{"unknown flag", []string{"-no-such-flag"}, "flag provided but not defined"},
		{"unknown env", []string{"-env", "marsnet"}, "marsnet"},
		{"zero flows", []string{"-flows", "0"}, "-flows"},
		{"zero per-class", []string{"-env", "dummynet", "-flows-per-class", "-3"}, "-flows-per-class"},
		// The cap is tested only through its rejection, which builds nothing.
		{"flows above cap", []string{"-flows", "100000000"}, "-flows must be in [1, 4096]"},
		{"flows just above cap", []string{"-flows", "4097"}, "-flows must be in"},
		{"per-class above cap", []string{"-env", "dummynet", "-flows-per-class", "4097"}, "-flows-per-class must be in [1, 4096]"},
		{"negative duration", []string{"-duration", "-5s"}, "-duration"},
		{"warmup past duration", []string{"-duration", "5s", "-warmup", "5s"}, "-warmup"},
		// A zero would otherwise be replaced by the figure's default.
		{"zero warmup", []string{"-warmup", "0"}, "-warmup"},
		{"negative warmup", []string{"-warmup", "-1s"}, "-warmup"},
		{"zero noise", []string{"-noise", "0"}, "-noise"},
		{"negative noise", []string{"-noise", "-0.5"}, "-noise"},
		{"noise above capacity", []string{"-noise", "3"}, "-noise"},
		{"NaN noise", []string{"-noise", "NaN"}, "-noise"},
		{"zero buffer", []string{"-buffer-bdp", "0"}, "-buffer-bdp"},
		{"negative buffer", []string{"-buffer-bdp", "-1"}, "-buffer-bdp"},
		{"infinite buffer", []string{"-buffer-bdp", "+Inf"}, "-buffer-bdp"},
		// Each environment reads one flow-count flag; the other one is
		// refused even at its default value rather than ignored.
		{"flows under dummynet", []string{"-env", "dummynet", "-flows", "3"}, "-flows does not apply to -env dummynet"},
		{"default flows under dummynet", []string{"-env", "dummynet", "-flows", "16"}, "-flows does not apply"},
		{"per-class under ns2", []string{"-env", "ns2", "-flows-per-class", "1"}, "-flows-per-class does not apply to -env ns2"},
		{"per-class under default env", []string{"-flows-per-class", "4"}, "-flows-per-class does not apply"},
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

// TestRunAcceptsRangeEdges runs at the inclusive edge of each range the
// flag help states: the smallest warm-up and the full-capacity noise load.
func TestRunAcceptsRangeEdges(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-flows", "4", "-duration", "4s", "-warmup", "1ns", "-noise", "1",
		"-buffer-bdp", "0.125", "-summary=false",
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
}

func TestRunHelpExitsZero(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-h"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-h: exit %d", code)
	}
	if !strings.Contains(stderr.String(), "Usage of lossim") {
		t.Fatalf("usage not printed: %s", stderr.String())
	}
}

// TestRunReportsWriteError: a trace the output refuses exits 1 and names
// the write error, not 0 with a truncated file behind it.
func TestRunReportsWriteError(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-flows", "4", "-duration", "4s", "-warmup", "1s", "-summary=false", "-o", "/dev/full",
	}, &stdout, &stderr)
	if code != 1 || !strings.Contains(stderr.String(), "write csv") || !strings.Contains(stderr.String(), "no space left on device") {
		t.Fatalf("-o /dev/full: exit %d, stderr %q; want exit 1 naming the write error", code, stderr.String())
	}
}
