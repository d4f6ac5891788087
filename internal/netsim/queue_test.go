package netsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func mkPkt(id uint64, size int) *Packet {
	return &Packet{ID: id, Size: size, Kind: Data}
}

func TestDropTailFIFO(t *testing.T) {
	q := NewDropTail(3)
	for i := uint64(0); i < 3; i++ {
		if !q.Enqueue(mkPkt(i, 100)) {
			t.Fatalf("enqueue %d rejected", i)
		}
	}
	if q.Enqueue(mkPkt(99, 100)) {
		t.Fatal("overfull enqueue accepted")
	}
	if q.Len() != 3 {
		t.Fatalf("len=%d", q.Len())
	}
	for i := uint64(0); i < 3; i++ {
		p := q.Dequeue()
		if p == nil || p.ID != i {
			t.Fatalf("dequeue %d got %v", i, p)
		}
	}
	if q.Dequeue() != nil {
		t.Fatal("dequeue from empty returned packet")
	}
	if q.Len() != 0 {
		t.Fatalf("empty queue len=%d", q.Len())
	}
}

func TestDropTailRefillsAfterDrain(t *testing.T) {
	q := NewDropTail(2)
	q.Enqueue(mkPkt(1, 10))
	q.Enqueue(mkPkt(2, 10))
	q.Dequeue()
	if !q.Enqueue(mkPkt(3, 10)) {
		t.Fatal("space freed by dequeue not reusable")
	}
	if q.Enqueue(mkPkt(4, 10)) {
		t.Fatal("accepted beyond limit")
	}
}

func TestDropTailZeroLimitPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for zero limit")
		}
	}()
	NewDropTail(0)
}

func TestDropTailCompaction(t *testing.T) {
	// Push/pop far beyond the compaction threshold and ensure FIFO order
	// survives.
	q := NewDropTail(16)
	next := uint64(0)
	exp := uint64(0)
	for round := 0; round < 100; round++ {
		for q.Len() < 16 {
			q.Enqueue(mkPkt(next, 7))
			next++
		}
		for q.Len() > 4 {
			p := q.Dequeue()
			if p.ID != exp {
				t.Fatalf("order broken: got %d want %d", p.ID, exp)
			}
			exp++
		}
	}
}

// Property: for any interleaving of enqueues and dequeues, DropTail never
// exceeds its limit and never loses FIFO order.
func TestDropTailProperty(t *testing.T) {
	f := func(ops []bool, limit uint8) bool {
		lim := int(limit%32) + 1
		q := NewDropTail(lim)
		var model []*Packet
		id := uint64(0)
		for _, enq := range ops {
			if enq {
				p := mkPkt(id, int(id%500)+1)
				id++
				ok := q.Enqueue(p)
				if ok != (len(model) < lim) {
					return false
				}
				if ok {
					model = append(model, p)
				}
			} else {
				p := q.Dequeue()
				if len(model) == 0 {
					if p != nil {
						return false
					}
				} else {
					if p != model[0] {
						return false
					}
					model = model[1:]
				}
			}
			if q.Len() != len(model) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestREDBelowMinThNeverDrops(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewRED(REDConfig{Limit: 100, MinTh: 50, MaxTh: 150}, rng)
	for i := 0; i < 40; i++ {
		if !q.Enqueue(mkPkt(uint64(i), 100)) {
			t.Fatalf("drop below minth at %d (avg=%v)", i, q.avg)
		}
	}
}

func TestREDForcedDropAtLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewRED(REDConfig{Limit: 10, MinTh: 100, MaxTh: 300}, rng)
	for i := 0; i < 10; i++ {
		if !q.Enqueue(mkPkt(uint64(i), 100)) {
			t.Fatalf("unexpected early drop at %d", i)
		}
	}
	if q.Enqueue(mkPkt(99, 100)) {
		t.Fatal("enqueue beyond hard limit accepted")
	}
}

func TestREDDropsUnderSustainedLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := NewRED(REDConfig{Limit: 1000, MinTh: 5, MaxTh: 15, MaxP: 0.1}, rng)
	drops := 0
	// Hold the queue long: enqueue 2 for every dequeue so avg climbs.
	for i := 0; i < 3000; i++ {
		if !q.Enqueue(mkPkt(uint64(i), 100)) {
			drops++
		}
		if i%2 == 0 {
			q.Dequeue()
		}
	}
	if drops == 0 {
		t.Fatal("RED never dropped despite sustained congestion")
	}
	if drops > 2900 {
		t.Fatalf("RED dropped nearly everything: %d", drops)
	}
}

func TestREDAboveMaxThDropsAll(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	q := NewRED(REDConfig{Limit: 10000, MinTh: 2, MaxTh: 4, MaxP: 0.1}, rng)
	// Fill without draining; once avg > maxTh every arrival is dropped
	// (non-gentle RED).
	total, drops := 0, 0
	for i := 0; i < 5000; i++ {
		total++
		if !q.Enqueue(mkPkt(uint64(i), 100)) {
			drops++
		}
	}
	if drops < total/2 {
		t.Fatalf("expected heavy dropping above maxth: %d/%d", drops, total)
	}
}

func TestREDECNMarksInsteadOfDropping(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	q := NewRED(REDConfig{Limit: 10000, MinTh: 2, MaxTh: 6, MaxP: 0.5, ECN: true}, rng)
	marked, dropped := 0, 0
	for i := 0; i < 2000; i++ {
		p := mkPkt(uint64(i), 100)
		p.ECT = true
		if !q.Enqueue(p) {
			dropped++
		} else if p.CE {
			marked++
		}
	}
	if marked == 0 {
		t.Fatal("ECN-capable packets never marked")
	}
	if dropped != 0 {
		t.Fatalf("ECN-capable packets dropped %d times below hard limit", dropped)
	}
	if q.Marked != uint64(marked) {
		t.Fatalf("Marked counter %d != observed %d", q.Marked, marked)
	}
}

func TestREDNonECTStillDropped(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	q := NewRED(REDConfig{Limit: 10000, MinTh: 2, MaxTh: 6, MaxP: 0.5, ECN: true}, rng)
	dropped := 0
	for i := 0; i < 2000; i++ {
		p := mkPkt(uint64(i), 100) // ECT = false
		if !q.Enqueue(p) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("non-ECT packets never dropped by ECN-enabled RED")
	}
}

func TestREDDefaults(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewRED(REDConfig{Limit: 100}, rng)
	if q.Wq != 0.002 || q.MaxP != 0.1 || q.MinTh != 5 || q.MaxTh != 15 {
		t.Fatalf("defaults wrong: wq=%v maxp=%v minth=%v maxth=%v", q.Wq, q.MaxP, q.MinTh, q.MaxTh)
	}
}

func TestREDIdleAging(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	q := NewRED(REDConfig{Limit: 100, MinTh: 5, MaxTh: 15, PacketsPerSecond: 1000}, rng)
	for i := 0; i < 30; i++ {
		q.EnqueueAt(mkPkt(uint64(i), 100), 0)
	}
	before := q.avg
	for q.Len() > 0 {
		q.Dequeue()
	}
	q.NoteEmptyAt(1.0)
	// Next arrival 10 seconds later: avg should have decayed sharply.
	q.EnqueueAt(mkPkt(1000, 100), 11.0)
	if q.avg >= before/2 {
		t.Fatalf("idle aging ineffective: before=%v after=%v", before, q.avg)
	}
}

func TestREDRequiresRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil rng accepted")
		}
	}()
	NewRED(REDConfig{Limit: 10}, nil)
}

func TestPacketKindString(t *testing.T) {
	if Data.String() != "data" || Ack.String() != "ack" || Feedback.String() != "feedback" {
		t.Fatal("kind strings wrong")
	}
	if PacketKind(99).String() != "unknown" {
		t.Fatal("unknown kind string wrong")
	}
}
