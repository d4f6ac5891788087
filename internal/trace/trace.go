// Package trace records and serializes the event traces the experiments
// analyze: packet drops at routers (the paper's loss traces), per-packet
// arrivals at probers, and flow throughput samples. Traces can round-trip
// through CSV for the command-line tools.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// LossEvent is one dropped (or, in the PlanetLab model, lost-in-path)
// packet: the unit of every burstiness analysis in the paper.
type LossEvent struct {
	At   sim.Time // when the drop happened
	Flow int      // owning flow
	Seq  int64    // sequence number of the dropped packet
	Size int      // bytes
}

// Recorder collects loss events in arrival order. The zero value is ready
// and retains every event. It is intended to be installed as a
// netsim.Port.OnDrop callback; the simulated world is single-threaded so no
// locking is needed.
//
// A Recorder can also run in sink/observer mode (SetSink): each Add is
// forwarded to the sink — typically an analysis.Streaming fed straight from
// the bottleneck port — and, when retention is disabled, not stored at all.
// That is how sweeps analyze loss processes online with O(1) memory;
// retain mode stays the default because the golden-trace and CSV paths
// need the raw events.
type Recorder struct {
	events  []LossEvent
	n       int               // events added, retained or not
	sink    func(e LossEvent) // observer, may be nil
	discard bool              // inverted so the zero value retains
}

// SetSink installs an observer called for every subsequent Add. When
// retain is false the recorder stops storing events (Events returns only
// what was retained before the switch); the event count is maintained
// either way. A nil sink with retain true restores the zero-value
// behavior.
func (r *Recorder) SetSink(sink func(e LossEvent), retain bool) {
	r.sink = sink
	r.discard = !retain
}

// Add records a loss event: it is counted, offered to the sink if one is
// installed, and retained unless sink mode disabled retention.
func (r *Recorder) Add(e LossEvent) {
	r.n++
	if r.sink != nil {
		r.sink(e)
	}
	if !r.discard {
		r.events = append(r.events, e)
	}
}

// Len reports the number of recorded events, including events a sink-mode
// recorder observed without retaining.
func (r *Recorder) Len() int { return r.n }

// Events returns the recorded events in arrival order. The returned slice
// is owned by the recorder; callers must not mutate it.
func (r *Recorder) Events() []LossEvent { return r.events }

// Times extracts just the timestamps, in order.
func (r *Recorder) Times() []sim.Time {
	out := make([]sim.Time, len(r.events))
	for i, e := range r.events {
		out[i] = e.At
	}
	return out
}

// Reset discards all recorded events, keeping capacity and any installed
// sink.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.n = 0
}

// Sorted reports whether events are in nondecreasing time order (they
// always are when recorded from a single router, but merged traces may
// need sorting). The index-based loop keeps the check allocation-free —
// sort.SliceIsSorted would allocate for its capturing closure and
// interface header on every call.
func (r *Recorder) Sorted() bool {
	for i := 1; i < len(r.events); i++ {
		if r.events[i].At < r.events[i-1].At {
			return false
		}
	}
	return true
}

// SortByTime sorts events into nondecreasing time order (stable, so ties
// keep their original relative order).
func (r *Recorder) SortByTime() {
	sort.SliceStable(r.events, func(i, j int) bool {
		return r.events[i].At < r.events[j].At
	})
}

// Merge combines several recorders into one time-sorted recorder, used when
// an experiment records losses at multiple routers. It merges the RETAINED
// events: a recorder that ran in sink mode contributes nothing here (its
// observations were forwarded, not stored), so merge retain-mode recorders
// only. The output is sized once from the known total.
func Merge(rs ...*Recorder) *Recorder {
	total := 0
	for _, r := range rs {
		total += len(r.events)
	}
	out := &Recorder{events: make([]LossEvent, 0, total)}
	for _, r := range rs {
		out.events = append(out.events, r.events...)
	}
	out.n = len(out.events)
	out.SortByTime()
	return out
}

// Intervals returns the time differences between consecutive events —
// the paper's "loss intervals". An empty or single-event trace yields nil.
func (r *Recorder) Intervals() []sim.Duration {
	if len(r.events) < 2 {
		return nil
	}
	out := make([]sim.Duration, 0, len(r.events)-1)
	for i := 1; i < len(r.events); i++ {
		out = append(out, r.events[i].At.Sub(r.events[i-1].At))
	}
	return out
}

// csvHeader is the first non-blank line of a trace file; the columns are
// LossEvent's fields in order.
const csvHeader = "at_ns,flow,seq,size"

// maxCSVRow bounds one formatted row: four int64s of at most 20 bytes, three
// commas and a newline.
const maxCSVRow = 4*20 + 4

// WriteCSV streams the trace to w: the header line, then one
// "at_ns,flow,seq,size" line of decimal integers per event. A recorder
// that discarded events in sink mode holds only a prefix of what it
// counted, so writing it is an error, not a short file.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if len(r.events) != r.n {
		return fmt.Errorf("trace: write csv: recorder retained %d of %d counted events", len(r.events), r.n)
	}
	// Rows are formatted in place in the writer's free space; its write
	// error is sticky, so only Flush is checked.
	bw := bufio.NewWriter(w)
	bw.WriteString(csvHeader + "\n")
	for _, e := range r.events {
		if bw.Available() < maxCSVRow {
			if err := bw.Flush(); err != nil {
				return fmt.Errorf("trace: write csv: %w", err)
			}
		}
		row := strconv.AppendInt(bw.AvailableBuffer(), int64(e.At), 10)
		row = strconv.AppendInt(append(row, ','), int64(e.Flow), 10)
		row = strconv.AppendInt(append(row, ','), e.Seq, 10)
		row = strconv.AppendInt(append(row, ','), int64(e.Size), 10)
		bw.Write(append(row, '\n'))
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("trace: write csv: %w", err)
	}
	return nil
}

// ReadCSV parses a trace written by WriteCSV. The grammar is line-based:
// the header line "at_ns,flow,seq,size", then one row of four
// comma-separated decimal integers (optional sign, int64 range; flow and
// size must fit an int) per event. Lines end in LF or CRLF, the last one
// may end at EOF, and blank lines are skipped. Nothing else is CSV here:
// quoted fields, spaces and extra or missing columns are errors, reported
// with the 1-based number of the offending data row.
func ReadCSV(rd io.Reader) (*Recorder, error) {
	remaining := remainingBytes(rd)
	br := bufio.NewReader(rd)
	r := &Recorder{}
	header, row := false, 0
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return nil, fmt.Errorf("trace: read csv: line after row %d longer than %d bytes", row, br.Size())
		}
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("trace: read csv: %w", err)
		}
		line = bytes.TrimSuffix(line, []byte("\n"))
		line = bytes.TrimSuffix(line, []byte("\r"))
		switch {
		case len(line) == 0:
		case !header:
			if string(line) != csvHeader {
				return nil, fmt.Errorf("trace: missing header, got %q", line)
			}
			header = true
		default:
			row++
			if row == 1 {
				// Rows lengthen as timestamps and sequence numbers grow, so
				// the first row bounds the count from above: the event
				// buffer is sized once and append never re-copies it.
				r.events = make([]LossEvent, 0, remaining/(len(line)+1))
			}
			e, bad := parseCSVRow(line)
			if bad != "" {
				return nil, fmt.Errorf("trace: row %d: bad %s in %q", row, bad, line)
			}
			r.Add(e)
		}
		if err == io.EOF {
			break
		}
	}
	if !header {
		return nil, fmt.Errorf("trace: empty file")
	}
	return r, nil
}

// remainingBytes reports how many bytes rd has left when it can say — an
// in-memory reader's Len, a file's size — and 0 otherwise.
func remainingBytes(rd io.Reader) int {
	switch v := rd.(type) {
	case interface{ Len() int }:
		return v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil {
			return int(fi.Size())
		}
	}
	return 0
}

// parseCSVRow decodes one "at_ns,flow,seq,size" line; bad names what is
// wrong with a line it refuses and is empty otherwise.
func parseCSVRow(line []byte) (e LossEvent, bad string) {
	var v [4]int64
	for i, name := range [4]string{"at_ns", "flow", "seq", "size"} {
		field := line
		if i < 3 {
			c := bytes.IndexByte(line, ',')
			if c < 0 {
				return e, "column count"
			}
			field, line = line[:c], line[c+1:]
		}
		var ok bool
		if v[i], ok = parseInt(field); !ok {
			return e, name
		}
	}
	if int64(int(v[1])) != v[1] {
		return e, "flow"
	}
	if int64(int(v[3])) != v[3] {
		return e, "size"
	}
	return LossEvent{At: sim.Time(v[0]), Flow: int(v[1]), Seq: v[2], Size: int(v[3])}, ""
}

// parseInt is strconv.ParseInt(s, 10, 64) without the string: an optional
// sign and up to 18 digits cannot overflow and are decoded in place;
// anything else is strconv's to accept or refuse.
func parseInt(s []byte) (int64, bool) {
	digits := s
	if len(digits) > 0 && (digits[0] == '-' || digits[0] == '+') {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		n, err := strconv.ParseInt(string(s), 10, 64)
		return n, err == nil
	}
	var n int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if s[0] == '-' {
		n = -n
	}
	return n, true
}

// ThroughputSample is one bin of a flow-throughput time series (Figure 7's
// aggregate-throughput-vs-time curves are built from these).
type ThroughputSample struct {
	Start sim.Time
	Bits  int64
}

// ThroughputSeries accumulates delivered bits into fixed bins.
type ThroughputSeries struct {
	Bin     sim.Duration
	samples []int64
}

// NewThroughputSeries creates a series with the given bin width.
func NewThroughputSeries(bin sim.Duration) *ThroughputSeries {
	if bin <= 0 {
		panic("trace: throughput bin must be positive")
	}
	return &ThroughputSeries{Bin: bin}
}

// Add credits bits delivered at time at.
func (ts *ThroughputSeries) Add(at sim.Time, bits int64) {
	idx := int(int64(at) / int64(ts.Bin))
	for len(ts.samples) <= idx {
		ts.samples = append(ts.samples, 0)
	}
	ts.samples[idx] += bits
}

// Mbps returns the series as megabits/second per bin.
func (ts *ThroughputSeries) Mbps() []float64 {
	out := make([]float64, len(ts.samples))
	binSec := ts.Bin.Seconds()
	for i, b := range ts.samples {
		out[i] = float64(b) / 1e6 / binSec
	}
	return out
}

// Samples returns the raw per-bin bit counts.
func (ts *ThroughputSeries) Samples() []ThroughputSample {
	out := make([]ThroughputSample, len(ts.samples))
	for i, b := range ts.samples {
		out[i] = ThroughputSample{Start: sim.Time(int64(i) * int64(ts.Bin)), Bits: b}
	}
	return out
}
