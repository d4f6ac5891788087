package netsim

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
)

// A Packet is two cache lines. PacketPool.Get clears the whole struct for
// every data segment and ACK and a pool slab is 64 of them, so anything
// only some packets carry — the GCC and RFT receiver reports were 224 of
// 336 bytes — belongs in the out-of-line Report block.
func TestPacketSize(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 128 {
		t.Fatalf("Packet is %d bytes, want ≤ 128: keep per-transport payloads in Report", n)
	}
}

// A recycled packet keeps its report block but never shows what the block
// held: Get hands back false flags and the next writer starts from zero.
func TestPacketPoolZeroesReport(t *testing.T) {
	pool := NewPacketPool()
	p := pool.Get()
	if p.report != nil {
		t.Fatal("a fresh packet carries a report block before any writer asked for one")
	}

	p.Kind = Feedback
	p.HasRFTAck = true
	fb := &p.Report().RFT
	fb.Epoch, fb.AckSeq, fb.NextNeeded, fb.Received, fb.Complete = 3, 9, 100, 140, true
	fb.NumResend = RFTResendEntries
	for i := range fb.Resend {
		fb.Resend[i] = RFTRange{Start: int64(100 + 10*i), End: int64(105 + 10*i)}
	}
	fb.Timestamp, fb.Delay = sim.Time(5*sim.Second), sim.Millisecond
	block := p.report
	pool.Put(p)

	q := pool.Get()
	if q != p || q.report != block {
		t.Fatal("Get did not return the recycled packet with its block")
	}
	if q.HasRFTAck || q.HasRateFB || q.Kind != Data {
		t.Fatalf("recycled packet kept header state: %+v", *q)
	}
	if *q.Report() != (Report{}) {
		t.Fatalf("recycled packet shows its previous RFT report: %+v", *q.Report())
	}

	q.HasRateFB = true
	q.Report().Rate = RateFeedback{TargetRate: 1e6, RecvRate: 9e5, Timestamp: sim.Time(sim.Second), Delay: sim.Millisecond}
	pool.Put(q)
	r := pool.Get()
	if r.HasRateFB || *r.Report() != (Report{}) {
		t.Fatalf("recycled packet shows its previous GCC report: %+v", *r.Report())
	}

	// Recycling a packet with a block allocates nothing, and neither does
	// writing the next report into it.
	pool.Put(r)
	if n := testing.AllocsPerRun(100, func() {
		x := pool.Get()
		x.HasRFTAck = true
		x.Report().RFT.NumResend = 1
		pool.Put(x)
	}); n != 0 {
		t.Fatalf("recycling a report-carrying packet allocates %v times", n)
	}
}
