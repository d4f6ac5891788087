package netsim

import (
	"math/rand"
	"testing"
)

func TestPersistentECNMarksEverythingInWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	q := NewRED(REDConfig{
		Limit: 1000, MinTh: 2, MaxTh: 6, MaxP: 1.0, ECN: true,
		PersistMark:      0.050, // 50 ms window
		PacketsPerSecond: 1000,  // enables idle aging of the average
	}, rng)

	// Phase 1: drive the average past maxTh so a mark decision fires.
	fired := false
	for i := 0; i < 200 && !fired; i++ {
		p := mkPkt(uint64(i), 100)
		p.ECT = true
		q.EnqueueAt(p, 0.001*float64(i))
		fired = p.CE
	}
	if !fired {
		t.Fatal("no initial mark decision")
	}
	markedAt := q.markUntil
	if markedAt <= 0 {
		t.Fatal("persistent window not opened")
	}

	// Phase 2: drain fully, then send sparse traffic inside the window —
	// even with an empty queue (avg below minTh) every ECT packet must be
	// marked.
	for q.Len() > 0 {
		q.Dequeue()
	}
	q.NoteEmptyAt(markedAt - 0.049)
	inWindow := markedAt - 0.001
	p := mkPkt(9999, 100)
	p.ECT = true
	if !q.EnqueueAt(p, inWindow) {
		t.Fatal("packet dropped inside window")
	}
	if !p.CE {
		t.Fatal("packet inside persistent window not marked")
	}

	// Phase 3: after the window and a long idle period (average decayed
	// below minTh), sparse ECT traffic is not marked.
	q.Dequeue()
	q.NoteEmptyAt(markedAt)
	p2 := mkPkt(10000, 100)
	p2.ECT = true
	if !q.EnqueueAt(p2, markedAt+10.0) {
		t.Fatal("packet dropped after window")
	}
	if p2.CE {
		t.Fatalf("packet after persistent window still marked (avg=%v)", q.avg)
	}
}

func TestPersistentECNIgnoresNonECT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	q := NewRED(REDConfig{
		Limit: 1000, MinTh: 2, MaxTh: 6, MaxP: 1.0, ECN: true, PersistMark: 1.0,
	}, rng)
	for i := 0; i < 200; i++ {
		p := mkPkt(uint64(i), 100)
		p.ECT = true
		q.EnqueueAt(p, 0.001*float64(i))
	}
	// Non-ECT packet inside the window must go through normal RED logic
	// (and with avg > maxTh, be dropped), never be marked.
	p := mkPkt(9999, 100)
	accepted := q.EnqueueAt(p, 0.21)
	if p.CE {
		t.Fatal("non-ECT packet marked")
	}
	_ = accepted // drop-vs-accept depends on avg; marking is the invariant
}

func TestPersistentECNDropDecisionOpensWindow(t *testing.T) {
	// With ECN off for the packet (non-ECT) but PersistMark configured, a
	// forced drop must still open the window for subsequent ECT packets.
	rng := rand.New(rand.NewSource(3))
	q := NewRED(REDConfig{
		Limit: 4, MinTh: 1, MaxTh: 2, MaxP: 1.0, ECN: true, PersistMark: 1.0,
	}, rng)
	dropped := false
	for i := 0; i < 50 && !dropped; i++ {
		dropped = !q.EnqueueAt(mkPkt(uint64(i), 100), 0.001*float64(i))
	}
	if !dropped {
		t.Fatal("no drop produced")
	}
	p := mkPkt(999, 100)
	p.ECT = true
	for q.Len() > 0 {
		q.Dequeue()
	}
	q.EnqueueAt(p, 0.06)
	if !p.CE {
		t.Fatal("drop decision did not open the persistent mark window")
	}
}
