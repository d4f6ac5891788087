// Command lossstat analyzes a loss trace (CSV from cmd/lossim) into the
// paper's inter-loss-interval PDF and burstiness summary.
//
// Usage:
//
//	lossstat -rtt 200ms trace.csv          # PDF rows to stdout
//	lossstat -rtt 200ms -ascii trace.csv   # terminal plot
package main

import (
	"io"
	"math"
	"os"
	"time"

	"repro/internal/analysis"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/trace"
)

// maxBins caps the PDF's bin count, -range/-bin. The histogram holds one
// 8-byte counter per bin, so the cap bounds what the flags can make the
// analysis allocate at 8 MB, far beyond any plot's resolution.
const maxBins = 1 << 20

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := cli.NewFlagSet("lossstat", stderr)
	var (
		rtt   = fs.Duration("rtt", 100*time.Millisecond, "RTT used to normalize intervals")
		bin   = fs.Float64("bin", 0.02, "PDF bin width in RTT units")
		rng   = fs.Float64("range", 2.0, "PDF range in RTT units")
		ascii = fs.Bool("ascii", false, "render an ASCII log-scale plot instead of rows")
	)
	if code, ok := cli.Parse(fs, args); !ok {
		return code
	}
	if *rtt <= 0 {
		return cli.Usagef(stderr, "lossstat", "-rtt must be positive, got %v", *rtt)
	}
	// Written so that NaN fails each test.
	if !(*bin > 0) || math.IsInf(*bin, 1) {
		return cli.Usagef(stderr, "lossstat", "-bin must be positive and finite, got %v", *bin)
	}
	if !(*rng > *bin) || math.IsInf(*rng, 1) {
		return cli.Usagef(stderr, "lossstat", "-range %v must be finite and exceed -bin %v", *rng, *bin)
	}
	if bins := *rng / *bin; !(bins <= maxBins) {
		return cli.Usagef(stderr, "lossstat", "-range/-bin asks for %.3g bins, above the limit %d", bins, maxBins)
	}
	if fs.NArg() != 1 {
		return cli.Usagef(stderr, "lossstat", "usage: lossstat [flags] trace.csv")
	}

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return cli.Failf(stderr, "lossstat", "%v", err)
	}
	defer f.Close()
	rec, err := trace.ReadCSV(f)
	if err != nil {
		return cli.Failf(stderr, "lossstat", "%v", err)
	}
	rep, err := analysis.AnalyzeTrace(rec, sim.Dur(*rtt), analysis.Config{
		BinWidth:    *bin,
		MaxInterval: *rng,
	})
	if err != nil {
		return cli.Failf(stderr, "lossstat", "%v", err)
	}
	if *ascii {
		err = core.WriteASCIIPDF(stdout, rep, 25)
	} else {
		err = core.WritePDF(stdout, rep)
	}
	if err != nil {
		return cli.Failf(stderr, "lossstat", "%v", err)
	}
	return 0
}
