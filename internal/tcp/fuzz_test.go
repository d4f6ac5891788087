package tcp

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// refReceiver is the reference FuzzReceiverWindow checks the Receiver's
// ring against: the out-of-order set as a map keyed by sequence, which
// needs no window, no growth and no re-indexing.
type refReceiver struct {
	cumAck               int64
	ooo                  map[int64]bool
	ceSeen               bool
	received, duplicates uint64
}

// handle absorbs one data segment and returns the ACK it must produce.
func (r *refReceiver) handle(seq int64, ce bool) (ack int64, echo bool) {
	r.received++
	if ce {
		r.ceSeen = true
	}
	switch {
	case seq == r.cumAck:
		r.cumAck++
		for r.ooo[r.cumAck] {
			delete(r.ooo, r.cumAck)
			r.cumAck++
		}
	case seq > r.cumAck:
		if r.ooo[seq] {
			r.duplicates++
		}
		r.ooo[seq] = true
	default:
		r.duplicates++
	}
	echo = r.ceSeen
	if r.ceSeen && r.cumAck > seq {
		r.ceSeen = false
	}
	return r.cumAck, echo
}

// Ops of a receiver fuzz program: two bytes each, the op and its argument.
const (
	opInOrder = iota // the next expected segment
	opOld            // a duplicate from below the cumulative point
	opNear           // reordered: 1..64 ahead, inside the initial ring
	opFar            // far ahead: up to 4,096, so the ring must grow
	opRepeat         // the most recent ahead-of-point segment again
	opFill           // arg%128 in-order segments: walks the point, closes holes
	opReset
	opCount
)

// prog assembles a seed program from (op, arg) pairs.
func prog(pairs ...int) []byte {
	b := make([]byte, len(pairs))
	for i, v := range pairs {
		b[i] = byte(v)
	}
	return b
}

// FuzzReceiverWindow drives the Receiver with byte programs of in-order,
// duplicate, reordered and far-ahead segments plus Reset, and checks it
// against the map reference after every segment: the same cumulative
// point and counters, the same ACK (Seq, Ack, CE) on the wire, and a ring
// that is a power of two holding exactly the reference's set. Jumps are
// bounded at 4,096 so growth is exercised, not exhausted — the bound a
// sender's window puts on how far ahead of the cumulative point a segment
// can land.
func FuzzReceiverWindow(f *testing.F) {
	// A hole filled after the ring grew: 193 ahead (64 → 256), then fill.
	f.Add(prog(opFar, 12, opFill, 127, opFill, 127))
	// A duplicate of a buffered segment, before and after a growth.
	f.Add(prog(opNear, 5, opRepeat, 0, opFar, 250, opRepeat, 0, opNear, 5, opFill, 10))
	// seq & mask wraps across a growth: walk to 60, buffer 70 (slot 6 of
	// 64), grow, and the flag must be found at slot 70.
	f.Add(prog(opFill, 60, opNear, 9, opFar, 100, opNear, 9, opFill, 127, opReset, 0, opNear, 63, opInOrder, 0))
	f.Add(prog(opOld, 3, opInOrder, 128, opOld, 0, opNear, 128+63, opInOrder, 0, opFar, 255, opFar, 255, opFill, 255))
	f.Fuzz(func(t *testing.T, data []byte) {
		sched := sim.NewScheduler()
		var got *netsim.Packet
		out := netsim.HandlerFunc(func(p *netsim.Packet) { got = p })
		r := NewReceiver(sched, out, 1, 200, 100, 40)
		ref := &refReceiver{ooo: make(map[int64]bool)}
		var last int64 // most recent ahead-of-point sequence

		deliver := func(seq int64, ce bool) {
			got = nil
			r.Handle(&netsim.Packet{Flow: 1, Kind: netsim.Data, Seq: seq, Size: 1000, CE: ce})
			ack, echo := ref.handle(seq, ce)
			if got == nil || got.Kind != netsim.Ack || got.Seq != seq || got.Ack != ack || got.CE != echo {
				t.Fatalf("seq %d: ACK %+v, want Seq=%d Ack=%d CE=%v", seq, got, seq, ack, echo)
			}
			if r.CumAck() != ref.cumAck || r.Received != ref.received || r.Duplicates != ref.duplicates {
				t.Fatalf("seq %d: cumAck/received/duplicates %d/%d/%d, want %d/%d/%d", seq,
					r.CumAck(), r.Received, r.Duplicates, ref.cumAck, ref.received, ref.duplicates)
			}
		}
		checkRing := func() {
			n := len(r.ooo)
			if n < minWindow || n&(n-1) != 0 {
				t.Fatalf("ring length %d is not a power of two ≥ %d", n, minWindow)
			}
			set := 0
			for _, f := range r.ooo {
				if f {
					set++
				}
			}
			if set != len(ref.ooo) {
				t.Fatalf("ring holds %d flags, reference %d", set, len(ref.ooo))
			}
			for s := range ref.ooo {
				if s-r.cumAck >= int64(n) || !r.ooo[s&int64(n-1)] {
					t.Fatalf("buffered seq %d (cumAck %d) is not in the %d-slot ring", s, r.cumAck, n)
				}
			}
		}

		// 512 ops reach every ring length the jump bound allows; longer
		// programs only slow the fuzzer down (each op rescans the ring).
		data = data[:min(len(data), 1024)]
		for i := 0; i+1 < len(data); i += 2 {
			arg := int64(data[i+1])
			ce := arg >= 128
			switch data[i] % opCount {
			case opInOrder:
				deliver(ref.cumAck, ce)
			case opOld:
				deliver(max(ref.cumAck-1-arg%8, 0), ce)
			case opNear:
				last = ref.cumAck + 1 + arg%64
				deliver(last, ce)
			case opFar:
				last = ref.cumAck + 1 + arg*16
				deliver(last, ce)
			case opRepeat:
				deliver(last, ce)
			case opFill:
				for n := arg % 128; n > 0; n-- {
					deliver(ref.cumAck, false)
				}
			case opReset:
				kept := len(r.ooo)
				r.Reset(out, 1, 200, 100, 40)
				*ref = refReceiver{ooo: make(map[int64]bool)}
				last = 0
				if len(r.ooo) != kept {
					t.Fatalf("Reset resized the ring from %d to %d", kept, len(r.ooo))
				}
			}
			checkRing()
		}
	})
}
