package main

import (
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/apps/rft"
	"repro/internal/exp"
	"repro/internal/topo"
)

// tracePrefix marks the traced run's registrations of the scenario
// catalog. A "bench:" scenario runs the original and records a span
// around it; nothing inside the program under test changes.
const tracePrefix = "bench:"

// span is one interval of host time at a layer boundary, recorded from
// the benchmark's own files around a call into the engine.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // span id, or -1 for a unit span
	Name   string `json:"name"`
	Unit   int    `json:"unit"`     // unit index: spans of one unit share it
	Worker int    `json:"worker"`   // 0 = the generator goroutine, 1.. = fleet workers
	Start  int64  `json:"start_ns"` // host ns since the traced phase began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; the runner writes them out when the run
// ends. A nil tracer records nothing, so the untraced run pays one nil
// check per boundary.
type tracer struct {
	t0 time.Time

	mu      sync.Mutex
	spans   []span
	workers map[*exp.Arena]int

	// The generator goroutine sets these before each unit; fleet workers
	// read them from their own goroutines.
	curUnit atomic.Int64
	curSpan atomic.Int64

	// Exact counts read from the results that pass through the wrapped
	// scenarios: what the sweep and fleet reports leave out.
	worlds    int
	forwarded uint64
	drops     uint64
	transfers *rft.TransferAgg
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), workers: map[*exp.Arena]int{}}
	t.curSpan.Store(-1)
	return t
}

func (t *tracer) begin(name string, parent, worker int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Unit: int(t.curUnit.Load()), Worker: worker, Start: now, End: -1})
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) unitSpan() int {
	if t == nil {
		return -1
	}
	return int(t.curSpan.Load())
}

// beginUnit opens the span every other span of unit i descends from.
func (t *tracer) beginUnit(i int) int {
	if t == nil {
		return -1
	}
	t.curUnit.Store(int64(i))
	id := t.begin("unit", -1, 0)
	t.curSpan.Store(int64(id))
	return id
}

// workerOf numbers the arenas in the order the tracer first sees them:
// a sweep or fleet worker holds one arena for its whole life, so the
// arena identifies the worker.
func (t *tracer) workerOf(a *exp.Arena) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.workers[a]
	if !ok {
		id = len(t.workers) + 1
		t.workers[a] = id
	}
	return id
}

func (t *tracer) observe(res *topo.ScenarioResult) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.worlds++
	t.forwarded += res.Forwarded
	t.drops += uint64(res.Drops)
	if res.Transfers != nil {
		if t.transfers == nil {
			t.transfers = rft.NewTransferAgg()
		}
		t.transfers.Merge(res.Transfers)
	}
}

// registerTraced registers every catalog scenario a second time under
// tracePrefix, with a streaming entry point that wraps the original in a
// "world:<name>" span. The tracer is looked up at call time, so the
// registrations are made once per process and cost nothing while no
// traced phase is running.
func registerTraced(current func() *tracer) {
	for _, sc := range topo.Scenarios() {
		if strings.HasPrefix(sc.Name, tracePrefix) {
			continue
		}
		orig := sc
		wrapped := orig
		wrapped.Name = tracePrefix + orig.Name
		wrapped.RunIn = func(cfg topo.ScenarioConfig, a *exp.Arena) (*topo.ScenarioResult, error) {
			t := current()
			if t == nil {
				return orig.RunIn(cfg, a)
			}
			id := t.begin("world:"+orig.Name, t.unitSpan(), t.workerOf(a))
			res, err := orig.RunIn(cfg, a)
			t.end(id)
			if err == nil {
				t.observe(res)
			}
			return res, err
		}
		topo.Register(wrapped)
	}
}

// worldSpans returns the durations of the world spans in ms, and their
// sum per scenario name in ns.
func (t *tracer) worldSpans() (ms []float64, byName map[string]float64, count map[string]int) {
	byName, count = map[string]float64{}, map[string]int{}
	for _, s := range t.spans {
		if name, ok := strings.CutPrefix(s.Name, "world:"); ok && s.End >= 0 {
			d := float64(s.End - s.Start)
			ms = append(ms, d/1e6)
			byName[name] += d
			count[name]++
		}
	}
	return ms, byName, count
}
