package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/csv"
	"errors"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	var r Recorder
	if r.Len() != 0 || r.Intervals() != nil {
		t.Fatal("zero recorder not empty")
	}
	r.Add(LossEvent{At: sim.Time(1 * sim.Second), Flow: 1, Seq: 10, Size: 1000})
	r.Add(LossEvent{At: sim.Time(3 * sim.Second), Flow: 2, Seq: 20, Size: 1000})
	r.Add(LossEvent{At: sim.Time(4 * sim.Second), Flow: 1, Seq: 30, Size: 1000})
	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	iv := r.Intervals()
	if len(iv) != 2 || iv[0] != 2*sim.Second || iv[1] != sim.Second {
		t.Fatalf("intervals = %v", iv)
	}
	ts := r.Times()
	if len(ts) != 3 || ts[0] != sim.Time(sim.Second) {
		t.Fatalf("times = %v", ts)
	}
	if !r.Sorted() {
		t.Fatal("sorted trace reported unsorted")
	}
	r.Reset()
	if r.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

// TestRecorderSinkModes covers the observer API: sink-without-retention
// forwards and counts but stores nothing; sink-with-retention tees; and
// clearing the sink restores the zero-value behavior.
func TestRecorderSinkModes(t *testing.T) {
	var r Recorder
	var seen []LossEvent
	r.SetSink(func(e LossEvent) { seen = append(seen, e) }, false)
	r.Add(LossEvent{At: 1, Flow: 1})
	r.Add(LossEvent{At: 2, Flow: 2})
	if r.Len() != 2 {
		t.Fatalf("sink mode Len = %d, want 2", r.Len())
	}
	if len(r.Events()) != 0 {
		t.Fatalf("sink mode retained %d events", len(r.Events()))
	}
	if len(seen) != 2 || seen[1].Flow != 2 {
		t.Fatalf("sink saw %v", seen)
	}

	r.Reset()
	seen = nil
	r.SetSink(func(e LossEvent) { seen = append(seen, e) }, true)
	r.Add(LossEvent{At: 3, Flow: 3})
	if r.Len() != 1 || len(r.Events()) != 1 || len(seen) != 1 {
		t.Fatalf("tee mode: len=%d retained=%d seen=%d", r.Len(), len(r.Events()), len(seen))
	}

	r.Reset()
	r.SetSink(nil, true)
	r.Add(LossEvent{At: 4})
	if r.Len() != 1 || len(r.Events()) != 1 {
		t.Fatal("cleared sink did not restore retain behavior")
	}
}

func TestRecorderSingleEventIntervals(t *testing.T) {
	var r Recorder
	r.Add(LossEvent{At: 5})
	if r.Intervals() != nil {
		t.Fatal("single event should have no intervals")
	}
}

func TestSortAndMerge(t *testing.T) {
	a := &Recorder{}
	a.Add(LossEvent{At: 30, Flow: 1})
	a.Add(LossEvent{At: 10, Flow: 1})
	if a.Sorted() {
		t.Fatal("unsorted trace reported sorted")
	}
	a.SortByTime()
	if !a.Sorted() {
		t.Fatal("sort failed")
	}

	b := &Recorder{}
	b.Add(LossEvent{At: 20, Flow: 2})
	m := Merge(a, b)
	if m.Len() != 3 || !m.Sorted() {
		t.Fatalf("merge: len=%d sorted=%v", m.Len(), m.Sorted())
	}
	if m.Events()[1].Flow != 2 {
		t.Fatal("merge order wrong")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := &Recorder{}
	r.Add(LossEvent{At: sim.Time(123456789), Flow: 3, Seq: 42, Size: 1500})
	r.Add(LossEvent{At: sim.Time(223456789), Flow: 4, Seq: -1, Size: 48})
	var buf bytes.Buffer
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("len = %d", got.Len())
	}
	for i, e := range got.Events() {
		if e != r.Events()[i] {
			t.Fatalf("event %d: %+v != %+v", i, e, r.Events()[i])
		}
	}
}

// readCSVErrorInputs must all be refused; FuzzReadCSV seeds its corpus
// with them.
var readCSVErrorInputs = map[string]string{
	"empty":      "",
	"no header":  "1,2,3,4\n",
	"bad at":     "at_ns,flow,seq,size\nxx,1,2,3\n",
	"bad flow":   "at_ns,flow,seq,size\n1,xx,2,3\n",
	"bad seq":    "at_ns,flow,seq,size\n1,2,xx,3\n",
	"bad size":   "at_ns,flow,seq,size\n1,2,3,xx\n",
	"wrong cols": "at_ns,flow,seq\n1,2,3\n",
}

func TestReadCSVErrors(t *testing.T) {
	for name, in := range readCSVErrorInputs {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: no error", name)
		}
	}
	// A bad field is reported with its column and its 1-based data-row
	// number; blank lines do not count as rows.
	_, err := ReadCSV(strings.NewReader("at_ns,flow,seq,size\n1,2,3,4\n\n5,6,-x,8\n"))
	if err == nil || !strings.Contains(err.Error(), "row 2: bad seq") {
		t.Fatalf("error %v does not name row 2 and column seq", err)
	}
	// A line that overflows the read buffer is refused whole, never split
	// into two rows.
	long := "at_ns,flow,seq,size\n1,2,3," + strings.Repeat("0", 5000) + "5,6,7,8\n"
	if _, err := ReadCSV(strings.NewReader(long)); err == nil {
		t.Fatal("over-long line: no error")
	}
}

// readCSVOracle is the encoding/csv reader ReadCSV replaced, kept as the
// reference FuzzReadCSV holds the hand-rolled one to.
func readCSVOracle(rd io.Reader) ([]LossEvent, error) {
	cr := csv.NewReader(rd)
	cr.FieldsPerRecord = 4
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 || rows[0][0] != "at_ns" {
		return nil, errors.New("missing header")
	}
	events := make([]LossEvent, 0, len(rows)-1)
	for _, row := range rows[1:] {
		at, err1 := strconv.ParseInt(row[0], 10, 64)
		flow, err2 := strconv.Atoi(row[1])
		seq, err3 := strconv.ParseInt(row[2], 10, 64)
		size, err4 := strconv.Atoi(row[3])
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			return nil, err
		}
		events = append(events, LossEvent{At: sim.Time(at), Flow: flow, Seq: seq, Size: size})
	}
	return events, nil
}

// writeCSVOracle is the encoding/csv writer WriteCSV replaced.
func writeCSVOracle(w io.Writer, events []LossEvent) error {
	cw := csv.NewWriter(w)
	cw.Write([]string{"at_ns", "flow", "seq", "size"})
	for _, e := range events {
		cw.Write([]string{strconv.FormatInt(int64(e.At), 10), strconv.Itoa(e.Flow),
			strconv.FormatInt(e.Seq, 10), strconv.Itoa(e.Size)})
	}
	cw.Flush()
	return cw.Error()
}

func sameEvents(t *testing.T, what string, got *Recorder, want []LossEvent) {
	t.Helper()
	if got.Len() != len(want) || len(got.Events()) != len(want) {
		t.Fatalf("%s: Len %d, %d retained, want %d", what, got.Len(), len(got.Events()), len(want))
	}
	for i, e := range got.Events() {
		if e != want[i] {
			t.Fatalf("%s: event %d: %+v != %+v", what, i, e, want[i])
		}
	}
}

// FuzzReadCSV holds ReadCSV to two properties on arbitrary bytes. Read as
// a file: it never panics, and whatever it accepts the encoding/csv oracle
// accepts with the same events (it is deliberately narrower — quoted
// fields are refused). Read as raw events (32 bytes each): what WriteCSV
// emits for them is the oracle writer's bytes and reads back event for
// event.
func FuzzReadCSV(f *testing.F) {
	for _, in := range readCSVErrorInputs {
		f.Add([]byte(in))
	}
	for _, in := range []string{
		"at_ns,flow,seq,size\n",
		"at_ns,flow,seq,size\n123456789,3,42,1500\n223456789,4,-1,48\n",
		"at_ns,flow,seq,size\r\n1,2,3,4\r\n\r\n5,6,7,8\r",
		"\n\nat_ns,flow,seq,size\n\n+1,+2,-3,+4",
		"at_ns,flow,seq,size\n-9223372036854775808,-7,9223372036854775807,0007\n",
		"at_ns,flow,seq,size\n9223372036854775808,1,1,1\n",
		"at_ns,flow,seq,size\n0000000000000000000000017,-0,+0,1\n",
		"at_ns,flow,seq,size\n\"1\",2,3,4\n",
		"at_ns,\"flow\",seq,size\n1,2,3,4\n",
		"at_ns,flow,seq,size\n1,2,3,4,5\n",
		"at_ns,flow,seq,size\n1,2,3,\n",
		"at_ns,flow,seq,size\n1,2,3,4\r\r\n",
	} {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if got, err := ReadCSV(bytes.NewReader(in)); err == nil {
			want, err := readCSVOracle(bytes.NewReader(in))
			if err != nil {
				t.Fatalf("accepted %q, which the oracle refuses: %v", in, err)
			}
			sameEvents(t, "against the oracle", got, want)
		}

		rec := &Recorder{}
		for ; len(in) >= 32; in = in[32:] {
			rec.Add(LossEvent{
				At:   sim.Time(binary.LittleEndian.Uint64(in)),
				Flow: int(int64(binary.LittleEndian.Uint64(in[8:]))),
				Seq:  int64(binary.LittleEndian.Uint64(in[16:])),
				Size: int(int64(binary.LittleEndian.Uint64(in[24:]))),
			})
		}
		var out, want bytes.Buffer
		if err := rec.WriteCSV(&out); err != nil {
			t.Fatal(err)
		}
		if err := writeCSVOracle(&want, rec.Events()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want.Bytes()) {
			t.Fatalf("WriteCSV wrote %q, encoding/csv writes %q", out.Bytes(), want.Bytes())
		}
		back, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("ReadCSV refuses WriteCSV's output: %v", err)
		}
		sameEvents(t, "round trip", back, rec.Events())
	})
}

// TestWriteCSVBytes pins the file format: byte for byte what encoding/csv
// wrote, extremes of every column included.
func TestWriteCSVBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rec := &Recorder{}
	for _, at := range []int64{math.MinInt64, math.MaxInt64, 0} {
		for _, n := range []int{math.MinInt, math.MaxInt, 0} {
			rec.Add(LossEvent{At: sim.Time(at), Flow: n, Seq: -at, Size: -n})
			rec.Add(LossEvent{At: sim.Time(-at), Flow: -n, Seq: at, Size: n})
		}
	}
	for rec.Len() < 100_000 {
		// Shifts spread the magnitudes over every digit count.
		rec.Add(LossEvent{
			At:   sim.Time(int64(rng.Uint64()) >> rng.Intn(64)),
			Flow: int(int64(rng.Uint64()) >> rng.Intn(64)),
			Seq:  int64(rng.Uint64()) >> rng.Intn(64),
			Size: int(int64(rng.Uint64()) >> rng.Intn(64)),
		})
	}
	var got, want bytes.Buffer
	if err := rec.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	if err := writeCSVOracle(&want, rec.Events()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV output (%d bytes) differs from encoding/csv's (%d bytes)", got.Len(), want.Len())
	}
	back, err := ReadCSV(&got)
	if err != nil {
		t.Fatal(err)
	}
	sameEvents(t, "round trip", back, rec.Events())
}

// TestCSVAllocs bounds the CSV path's allocations by count, not by row:
// the reader allocates its buffer, the recorder and one event slice sized
// from the input length; the writer its buffer.
func TestCSVAllocs(t *testing.T) {
	rec := &Recorder{}
	for i := 0; i < 10_000; i++ {
		rec.Add(LossEvent{At: sim.Time(i) * 1_000_003, Flow: i % 16, Seq: int64(i), Size: 1000})
	}
	var buf bytes.Buffer
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)

	if n := testing.AllocsPerRun(10, func() {
		buf.Reset()
		if err := rec.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}); n > 2 {
		t.Errorf("WriteCSV of 10k rows into a grown buffer: %v allocations, want ≤ 2", n)
	}
	rd := bytes.NewReader(data)
	if n := testing.AllocsPerRun(10, func() {
		rd.Reset(data)
		if _, err := ReadCSV(rd); err != nil {
			t.Fatal(err)
		}
	}); n > 8 {
		t.Errorf("ReadCSV of 10k rows: %v allocations, want ≤ 8", n)
	}
}

// TestWriteCSVRefusesTruncatedRecorder: a recorder that discarded events
// in sink mode must not pass off its retained prefix as the trace.
func TestWriteCSVRefusesTruncatedRecorder(t *testing.T) {
	var r Recorder
	r.Add(LossEvent{At: 1})
	r.SetSink(func(LossEvent) {}, false)
	r.Add(LossEvent{At: 2})
	err := r.WriteCSV(io.Discard)
	if err == nil || !strings.Contains(err.Error(), "retained 1 of 2") {
		t.Fatalf("WriteCSV of a discarding recorder: %v", err)
	}
}

func TestCSVPropertyRoundTrip(t *testing.T) {
	f := func(ats []int64, flows []int16) bool {
		r := &Recorder{}
		for i, at := range ats {
			if at < 0 {
				at = -at
			}
			fl := 0
			if i < len(flows) {
				fl = int(flows[i])
			}
			r.Add(LossEvent{At: sim.Time(at), Flow: fl, Seq: int64(i), Size: i % 2000})
		}
		var buf bytes.Buffer
		if err := r.WriteCSV(&buf); err != nil {
			return false
		}
		got, err := ReadCSV(&buf)
		if err != nil {
			return false
		}
		if got.Len() != r.Len() {
			return false
		}
		for i := range got.Events() {
			if got.Events()[i] != r.Events()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestThroughputSeries(t *testing.T) {
	ts := NewThroughputSeries(sim.Second)
	ts.Add(sim.Time(100*sim.Millisecond), 1_000_000)
	ts.Add(sim.Time(900*sim.Millisecond), 1_000_000)
	ts.Add(sim.Time(1500*sim.Millisecond), 4_000_000)
	mbps := ts.Mbps()
	if len(mbps) != 2 {
		t.Fatalf("bins = %d", len(mbps))
	}
	if mbps[0] != 2.0 || mbps[1] != 4.0 {
		t.Fatalf("mbps = %v", mbps)
	}
	samples := ts.Samples()
	if samples[1].Start != sim.Time(sim.Second) || samples[1].Bits != 4_000_000 {
		t.Fatalf("samples = %+v", samples)
	}
}

func TestThroughputSeriesZeroBinPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewThroughputSeries(0)
}
