package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/trace"
)

func writeTrace(t *testing.T) string {
	t.Helper()
	rec := &trace.Recorder{}
	// A bursty synthetic trace: clusters of closely spaced drops.
	at := sim.Time(0)
	for burst := 0; burst < 20; burst++ {
		at = at.Add(sim.Duration(burst+1) * 50 * sim.Millisecond)
		for k := 0; k < 4; k++ {
			at = at.Add(100 * sim.Microsecond)
			rec.Add(trace.LossEvent{At: at, Flow: k, Seq: int64(burst*4 + k), Size: 1000})
		}
	}
	path := filepath.Join(t.TempDir(), "trace.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rec.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunAnalyzesTrace(t *testing.T) {
	path := writeTrace(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rtt", "100ms", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "frac<0.01RTT") || !strings.Contains(out, "poisson_pdf") {
		t.Fatalf("unexpected report:\n%s", out)
	}
}

func TestRunASCIIPlot(t *testing.T) {
	path := writeTrace(t)
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rtt", "100ms", "-ascii", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "*") {
		t.Fatalf("no plot marks:\n%s", stdout.String())
	}
}

func TestRunUsageAndMissingFile(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("no args: exit %d", code)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Fatalf("stderr: %s", stderr.String())
	}
	stderr.Reset()
	if code := run([]string{"/no/such/trace.csv"}, &stdout, &stderr); code != 1 {
		t.Fatalf("missing file: exit %d", code)
	}
}

// TestRunRejectsNegativeLossTime: a trace whose first loss lies before
// time 0 is a runtime failure that names the analysis error, not a panic.
func TestRunRejectsNegativeLossTime(t *testing.T) {
	path := filepath.Join(t.TempDir(), "neg.csv")
	csv := "at_ns,flow,seq,size\n-300000000,1,1,1\n0,1,2,1\n100,1,3,1\n"
	if err := os.WriteFile(path, []byte(csv), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rtt", "100ms", path}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr: %s)", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "before time 0") {
		t.Fatalf("stderr does not name the error: %s", stderr.String())
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
		{"unknown flag", []string{"-no-such-flag", "x.csv"}, "flag provided but not defined"},
		{"zero rtt", []string{"-rtt", "0s", "x.csv"}, "-rtt"},
		{"negative bin", []string{"-bin", "-0.1", "x.csv"}, "-bin"},
		{"range below bin", []string{"-bin", "0.5", "-range", "0.2", "x.csv"}, "-range"},
		{"NaN bin", []string{"-bin", "NaN", "x.csv"}, "-bin"},
		{"infinite bin", []string{"-bin", "+Inf", "x.csv"}, "-bin"},
		{"NaN range", []string{"-range", "NaN", "x.csv"}, "-range"},
		{"infinite range", []string{"-range", "+Inf", "x.csv"}, "-range"},
		// Rejected before any allocation: 1e-9 would ask for 2e9 bins.
		{"too many bins", []string{"-bin", "1e-9", "x.csv"}, "above the limit"},
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
