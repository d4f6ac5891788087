package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// metric is one named measurement with its unit, as printed and as
// written to the result file.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Note carries what the number alone does not say: a sample count, an
	// op count, the percentile a "hi" metric landed on.
	Note string `json:"note,omitempty"`
}

// metricSet collects metrics in emission order and rejects a name used
// twice, so a workload cannot silently overwrite a layer's number.
type metricSet struct {
	list []metric
	seen map[string]bool
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func (s *metricSet) add(name string, v float64, unit, note string) {
	if !metricName.MatchString(name) {
		panic("bench: bad metric name " + name)
	}
	if s.seen == nil {
		s.seen = map[string]bool{}
	}
	if s.seen[name] {
		panic("bench: metric emitted twice: " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	s.seen[name] = true
	s.list = append(s.list, metric{Name: name, Value: v, Unit: unit, Note: note})
}

// print writes one "name value unit" line per metric; the note, when
// there is one, follows a '#'.
func (s *metricSet) print(w io.Writer) {
	for _, m := range s.list {
		if m.Note != "" {
			fmt.Fprintf(w, "%-28s %.6g %s  # %s\n", m.Name, m.Value, m.Unit, m.Note)
		} else {
			fmt.Fprintf(w, "%-28s %.6g %s\n", m.Name, m.Value, m.Unit)
		}
	}
}

// result is the last line of standard output: the contract every run of
// the benchmark answers with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (s *metricSet) resultMap() map[string]resultValue {
	out := make(map[string]resultValue, len(s.list))
	for _, m := range s.list {
		out[m.Name] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// writeJSON writes v under bench/out/, creating the directory.
func writeJSON(name string, v any) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("bench: create %s: %w", outDir, err)
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encode %s: %w", name, err)
	}
	path := filepath.Join(outDir, name)
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write %s: %w", path, err)
	}
	return nil
}

// median returns the middle value (mean of the two middle values for an
// even count); 0 for an empty slice. The input is not modified. It is the
// runner's own rather than stats.Quantile because stats is code under
// test: a change there must not change how the benchmark does its sums.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// hiPercentile returns the highest order statistic that still has ten
// samples beyond it, never below the median, and the percentile it sits
// at. With 21 samples or fewer it is the median: the run was too short to
// say anything about a tail, and the note says so.
func hiPercentile(xs []float64) (v float64, pct int) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n-11 <= (n-1)/2 {
		return median(xs), 50
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	j := n - 11
	return s[j], int(math.Round(100 * float64(j) / float64(n-1)))
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
