// Package trace records and serializes the event traces the experiments
// analyze: loss events (packet drops at routers, the paper's loss traces,
// or the losses a TCP sender infers from its retransmissions) and flow
// throughput samples. Loss traces round-trip through CSV for the
// command-line tools.
package trace

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"
	"math/bits"
	"sort"
	"strconv"

	"repro/internal/sim"
)

// LossEvent is one dropped (or, in a TCP-inferred trace, retransmitted)
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

// Reset discards all recorded events, keeping capacity and any installed
// sink.
func (r *Recorder) Reset() {
	r.events = r.events[:0]
	r.n = 0
}

// SortByTime sorts events into nondecreasing time order (stable, so ties
// keep their original relative order).
func (r *Recorder) SortByTime() {
	sort.SliceStable(r.events, func(i, j int) bool {
		return r.events[i].At < r.events[j].At
	})
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
// counted, so writing it is an error, not a short file. A destination
// that can Grow (a bytes.Buffer) is grown once to the exact output
// length, so it never re-copies what it already holds.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if len(r.events) != r.n {
		return fmt.Errorf("trace: write csv: recorder retained %d of %d counted events", len(r.events), r.n)
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(r.csvLen())
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

// csvLen is the byte length of WriteCSV's output: the header line, and per
// row the decimal lengths of its four fields, three commas and a newline.
func (r *Recorder) csvLen() int {
	n := len(csvHeader) + 1
	for _, e := range r.events {
		n += decLen(int64(e.At)) + decLen(int64(e.Flow)) + decLen(e.Seq) + decLen(int64(e.Size)) + 4
	}
	return n
}

// pow10 holds 10^0 … 10^19, every power of ten a uint64 holds.
var pow10 = func() (p [20]uint64) {
	p[0] = 1
	for i := 1; i < len(p); i++ {
		p[i] = 10 * p[i-1]
	}
	return p
}()

// decLen is len(strconv.FormatInt(v, 10)).
func decLen(v int64) int {
	u, sign := uint64(v), 0
	if v < 0 {
		u, sign = -u, 1
	}
	// Setting the low bit keeps the digit count (no power of ten is odd
	// but 1) and makes 0 count as one digit. With 1233/4096 ≈ log10(2),
	// d is ⌊log10 u⌋ or one above it; one comparison settles which.
	u |= 1
	d := bits.Len64(u) * 1233 >> 12
	if u < pow10[d] {
		d--
	}
	return sign + d + 1
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
		if n := len(line); n > 0 && line[n-1] == '\n' {
			line = line[:n-1]
		}
		if n := len(line); n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
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
				// Rows of a time-ordered trace lengthen as timestamps and
				// sequence numbers grow, so the first row's length usually
				// bounds the count from above and the event buffer is sized
				// once. Enough rows shorter than the first outgrow it, and
				// append re-copies it.
				r.events = make([]LossEvent, 0, remaining/(len(line)+1))
			}
			e, bad := parseCSVRow(line)
			if bad != "" {
				return nil, fmt.Errorf("trace: row %d: bad %s in %q", row, bad, line)
			}
			r.events = append(r.events, e)
		}
		if err == io.EOF {
			break
		}
	}
	if !header {
		return nil, fmt.Errorf("trace: empty file")
	}
	r.n = len(r.events)
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

// csvFields names a row's columns, for error messages.
var csvFields = [4]string{"at_ns", "flow", "seq", "size"}

// parseCSVRow decodes one "at_ns,flow,seq,size" line in a single walk:
// per field an optional sign, decimal digits, then a comma or, after the
// last field, the end of the line. bad names what is wrong with a line it
// refuses and is empty otherwise.
func parseCSVRow(line []byte) (e LossEvent, bad string) {
	var v [4]int64
	i := 0
	for f := range v {
		start := i
		neg := i < len(line) && line[i] == '-'
		if neg || i < len(line) && line[i] == '+' {
			i++
		}
		digits := i
		var n int64
		for ; i < len(line) && line[i]-'0' <= 9; i++ {
			n = n*10 + int64(line[i]-'0')
		}
		switch {
		case f < 3 && (i == len(line) || line[i] != ','), f == 3 && i != len(line):
			// The field holds a byte that is neither a digit nor its
			// delimiter: a bad value, unless no delimiter follows at all.
			if f < 3 && bytes.IndexByte(line[i:], ',') < 0 {
				return e, "column count"
			}
			return e, csvFields[f]
		case i == digits || i-digits > 18:
			// No digits, or more than 18, which n may have overflowed
			// on: strconv accepts or refuses.
			var err error
			if n, err = strconv.ParseInt(string(line[start:i]), 10, 64); err != nil {
				return e, csvFields[f]
			}
		case neg:
			n = -n
		}
		v[f] = n
		i++ // past the comma
	}
	if int64(int(v[1])) != v[1] {
		return e, "flow"
	}
	if int64(int(v[3])) != v[3] {
		return e, "size"
	}
	return LossEvent{At: sim.Time(v[0]), Flow: int(v[1]), Seq: v[2], Size: int(v[3])}, ""
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
