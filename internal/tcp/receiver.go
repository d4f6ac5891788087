package tcp

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Receiver is the TCP sink: it acknowledges every data packet cumulatively
// (no delayed ACKs, matching the ns-2 configuration the paper's
// experiments use), tracks out-of-order arrivals so the cumulative ACK
// jumps forward when holes fill, and echoes ECN congestion-experienced
// marks back to the sender.
type Receiver struct {
	sched *sim.Scheduler
	out   netsim.Handler
	flow  int
	src   int // this receiver's node address
	dst   int // the sender's node address

	cumAck int64 // next expected sequence
	// ooo is the reorder window: a power-of-two ring of flags indexed
	// seq & (len-1), covering the sequences [cumAck, cumAck+len). A flag is
	// set iff that sequence arrived ahead of the cumulative point; every
	// other slot — cumAck's own included — is false, so the window slides
	// forward without any clearing beyond the flags it consumes.
	ooo []bool

	ceSeen bool // latched CE until echoed (simplified ECE)

	pktID uint64
	pool  *netsim.PacketPool

	// Statistics.
	Received   uint64 // data packets that arrived (including duplicates)
	Duplicates uint64
	AcksOut    uint64
	BytesIn    uint64

	// OnData observes every arriving data packet (throughput accounting).
	OnData func(p *netsim.Packet, at sim.Time)
}

// NewReceiver builds a receiver for one flow. out is where ACKs are
// injected (normally the receiver-side node); src is this node's address,
// dst the sender's.
func NewReceiver(sched *sim.Scheduler, out netsim.Handler, flow, src, dst int) *Receiver {
	if sched == nil || out == nil {
		panic("tcp: NewReceiver requires scheduler and output")
	}
	return &Receiver{
		sched: sched, out: out,
		flow: flow, src: src, dst: dst,
		ooo: make([]bool, minWindow),
	}
}

// minWindow is the reorder ring's initial length (a power of two). The
// ring doubles whenever a segment lands beyond it, so the value only sets
// how many doublings a receiver pays on its first loss episodes.
const minWindow = 64

// CumAck reports the next expected sequence number.
func (r *Receiver) CumAck() int64 { return r.cumAck }

// SetPool attaches the world's packet freelist: consumed data packets are
// recycled and outgoing ACKs drawn from it. NewPairFlow wires this
// automatically from Config.Pool.
func (r *Receiver) SetPool(pool *netsim.PacketPool) { r.pool = pool }

// Handle implements netsim.Handler for arriving data packets. The receiver
// is the data packet's final consumer: once the ACK is generated the
// packet is recycled, so OnData observers must copy rather than retain.
func (r *Receiver) Handle(p *netsim.Packet) {
	if p.Kind != netsim.Data || p.Flow != r.flow {
		return
	}
	r.Received++
	r.BytesIn += uint64(p.Size)
	if r.OnData != nil {
		r.OnData(p, r.sched.Now())
	}
	if p.CE {
		r.ceSeen = true
	}
	switch {
	case p.Seq == r.cumAck:
		r.cumAck++
		mask := int64(len(r.ooo) - 1)
		for r.ooo[r.cumAck&mask] {
			r.ooo[r.cumAck&mask] = false
			r.cumAck++
		}
	case p.Seq > r.cumAck:
		if p.Seq-r.cumAck >= int64(len(r.ooo)) {
			r.growWindow(p.Seq)
		}
		slot := &r.ooo[p.Seq&int64(len(r.ooo)-1)]
		if *slot {
			r.Duplicates++
		}
		*slot = true
	default:
		r.Duplicates++
	}
	r.sendAck(p)
	r.pool.Put(p)
}

// growWindow doubles the reorder ring until it covers seq. A flag's slot
// depends on the ring length, so the buffered flags are re-indexed by
// sequence rather than copied by position.
func (r *Receiver) growWindow(seq int64) {
	n := int64(len(r.ooo))
	for seq-r.cumAck >= n {
		n *= 2
	}
	grown := make([]bool, n)
	old := int64(len(r.ooo))
	for s := r.cumAck; s < r.cumAck+old; s++ {
		if r.ooo[s&(old-1)] {
			grown[s&(n-1)] = true
		}
	}
	r.ooo = grown
}

func (r *Receiver) sendAck(data *netsim.Packet) {
	r.pktID++
	ack := r.pool.Get()
	ack.ID = r.pktID
	ack.Flow = r.flow
	ack.Kind = netsim.Ack
	ack.Size = ackSize
	ack.Seq = data.Seq
	ack.Ack = r.cumAck
	ack.Src = r.src
	ack.Dst = r.dst
	ack.SendTime = r.sched.Now()
	ack.CE = r.ceSeen // echo congestion experienced
	if r.ceSeen && r.cumAck > data.Seq {
		// Mark echoed on an advancing ACK; clear the latch. (Real TCP
		// clears on CWR; one echo per mark is enough for our sender, which
		// rate-limits reductions to once per RTT.)
		r.ceSeen = false
	}
	r.AcksOut++
	r.out.Handle(ack)
}
