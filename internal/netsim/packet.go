// Package netsim provides the packet-level network elements that the
// experiments run on: packets, queues (DropTail and RED, with optional ECN
// marking), links with serialization and propagation delay, output ports,
// nodes with static routing, and the dumbbell topology used throughout the
// paper. It plays the role NS-2 plays in the original study.
package netsim

import "repro/internal/sim"

// PacketKind discriminates the traffic carried by a Packet.
type PacketKind uint8

const (
	// Data is a payload-carrying segment (TCP data, TFRC data, CBR probe,
	// cross-traffic burst).
	Data PacketKind = iota
	// Ack is a transport acknowledgement travelling in the reverse path.
	Ack
	// Feedback is a TFRC receiver report.
	Feedback
)

func (k PacketKind) String() string {
	switch k {
	case Data:
		return "data"
	case Ack:
		return "ack"
	case Feedback:
		return "feedback"
	default:
		return "unknown"
	}
}

// Packet is the unit of transmission. Packets are allocated by senders and
// flow through queues and links by pointer; nothing mutates a packet after
// it has been handed to the network except the ECN congestion-experienced
// bit, which routers may set.
type Packet struct {
	ID   uint64     // globally unique, assigned by the allocating source
	Flow int        // flow identifier; unique per experiment
	Kind PacketKind // data / ack / feedback
	Size int        // bytes on the wire, headers included

	Seq int64 // data: sequence number in packets; acks: echoed sequence
	Ack int64 // acks: cumulative acknowledgement (next expected seq)

	Src, Dst int // node addresses

	SendTime sim.Time // stamped by the source when first transmitted
	Retrans  bool     // data: this is a retransmission

	ECT bool // ECN-capable transport
	CE  bool // congestion experienced, set by RED/ECN routers

	// HasRateFB marks a Feedback packet as carrying a delay-based (GCC
	// style) receiver report in Report().Rate.
	HasRateFB bool
	// HasRFTAck marks a Feedback packet as carrying a reliable-file-transfer
	// client report in Report().RFT (internal/apps/rft).
	HasRFTAck bool

	// SenderRTT is the sender's current RTT estimate, carried on TFRC data
	// packets (RFC 3448 §3.2.1) so the receiver can group losses into loss
	// events and pace its feedback.
	SenderRTT sim.Duration

	// FeedbackPayload carries TFRC receiver-report fields when Kind is
	// Feedback. It is nil on other packets.
	FeedbackPayload *TFRCFeedback

	// report is the out-of-line block behind Report. Only feedback packets
	// of the GCC and RFT transports ever attach one; data segments and
	// ACKs stay two cache lines.
	report *Report
}

// Report holds the by-value receiver reports a Feedback packet can carry.
// It lives out of line so the packets that carry no report — every data
// segment and ACK — do not pay for it in size or in PacketPool.Get's
// clearing, and by value inside one block so the periodic report streams
// stay allocation-free on pooled packets.
type Report struct {
	// Rate is the delay-based receiver report (valid iff HasRateFB).
	Rate RateFeedback
	// RFT is the file-transfer client report (valid iff HasRFTAck), with a
	// fixed-size resend-entry array.
	RFT RFTFeedback
}

// Report returns the packet's report block, attaching a zero one on first
// use. The writer of a report sets the matching Has flag and fills the
// block through this; a reader checks the flag first. The block stays
// with a pooled packet for the packet's life: PacketPool.Get zeroes it
// along with the packet, so a recycled packet never shows an earlier
// report.
func (p *Packet) Report() *Report {
	if p.report == nil {
		p.report = new(Report)
	}
	return p.report
}

// RFTResendEntries is the resend-entry capacity of one client ACK. A real
// NACK report is size-bounded the same way (it must fit one datagram);
// gaps beyond the bound are simply re-reported on later ACKs, since the
// receiver re-derives its missing set from the chunk ledger every tick.
const RFTResendEntries = 8

// RFTRange is one missing-chunk run [Start, End) in a client ACK.
type RFTRange struct {
	Start, End int64
}

// RFTFeedback is the periodic client report of the reliable file transfer
// application (internal/apps/rft), modeled on the rftp protocol: a
// monotone report number for stale-report rejection, a cumulative ACK
// (lowest chunk not yet received), a bounded list of missing-chunk ranges
// (the resend entries), and the echo timestamps the sender's RTT estimate
// needs.
type RFTFeedback struct {
	// Epoch is the transfer generation the report belongs to. Restarting
	// a flow for its next transfer bumps the epoch on both endpoints, so
	// an ACK still in flight from the previous transfer is recognizably
	// stale (chunk packets carry the epoch in Packet.Ack for the same
	// reason).
	Epoch int64
	// AckSeq is the monotone report number; the sender ignores reports
	// arriving out of order and decrements its AIMD cool-off by the
	// AckSeq delta, per the rftp AIMD.
	AckSeq int64
	// NextNeeded is the cumulative ACK: every chunk below it has been
	// received.
	NextNeeded int64
	// Received is the count of distinct chunks received so far.
	Received int64
	// Complete reports that every chunk of the transfer has arrived.
	Complete bool
	// NumResend is the number of valid entries in Resend.
	NumResend int
	// Resend lists up to RFTResendEntries missing-chunk ranges between
	// NextNeeded and the highest chunk seen.
	Resend [RFTResendEntries]RFTRange
	// Timestamp is the send time of the newest data chunk seen and Delay
	// the report's lag behind that arrival, for the sender's RTT estimate
	// (same convention as RateFeedback).
	Timestamp sim.Time
	Delay     sim.Duration
}

// RateFeedback is the receiver report of the delay-based congestion
// controller (internal/ratectl): the receiver-side pipeline computes a
// target rate from one-way delay gradients and returns it to the sender
// REMB-style, together with the timestamps the sender needs for its RTT
// estimate and the measured arrival rate.
type RateFeedback struct {
	TargetRate float64  // receiver-computed target sending rate, bytes/second
	RecvRate   float64  // measured receive rate since the last report, bytes/second
	Timestamp  sim.Time // send time of the newest data packet seen (for RTT)
	Delay      sim.Duration
}

// TFRCFeedback is the receiver report defined by RFC 3448 §3.2.2: the
// information a TFRC receiver returns to its sender once per RTT.
type TFRCFeedback struct {
	Timestamp sim.Time // send time of the packet that triggered the report (for RTT)
	Delay     sim.Duration
	RecvRate  float64 // receive rate in bytes/second since the last report
	LossRate  float64 // loss event rate p
}

// PacketPool is a per-world packet freelist. Senders Get packets instead
// of allocating, and the component that terminates a packet's life — the
// receiving transport, a sink, or the port that drops it — Puts it back.
//
// Ownership rules (documented for every implementor):
//
//   - A packet belongs to exactly one component at a time; handing it to a
//     Handler transfers ownership.
//   - Only the final consumer recycles: a Handler that forwards the packet
//     must not Put it, and observers (OnDrop, OnData, trace wrappers) must
//     copy fields rather than retain the pointer, because the packet may
//     be reused as soon as the observing callback returns.
//   - Pools are per world, not global and not sync.Pool: a simulated world
//     is single-goroutine by contract, so an unsynchronized freelist is
//     race-free, allocation order stays deterministic, and no packet can
//     migrate between concurrently running replications.
//
// A nil *PacketPool is valid everywhere one is accepted: Get falls back to
// plain allocation and Put discards, so worlds that do not care about
// allocation pressure need no wiring.
type PacketPool struct {
	free []*Packet
}

// NewPacketPool returns an empty pool.
func NewPacketPool() *PacketPool { return &PacketPool{} }

// poolSlab is how many packets an empty pool allocates at once. Populating
// a pool packet-by-packet costs one allocation per packet; slab allocation
// cuts that to one per 64, which is most of a fresh world's allocation
// count (the population is the largest object group a run creates). The
// slab stays reachable while any of its packets is, which is fine: pools
// are per world and packets never outlive their world.
const poolSlab = 64

// Get returns a zeroed packet, reusing a recycled one when available. A
// recycled packet keeps its report block, zeroed too.
func (pl *PacketPool) Get() *Packet {
	if pl == nil {
		return &Packet{}
	}
	if len(pl.free) == 0 {
		slab := make([]Packet, poolSlab)
		for i := range slab[1:] {
			pl.free = append(pl.free, &slab[1+i])
		}
		return &slab[0]
	}
	n := len(pl.free) - 1
	p := pl.free[n]
	pl.free[n] = nil
	pl.free = pl.free[:n]
	r := p.report
	if r != nil {
		*r = Report{}
	}
	*p = Packet{report: r}
	return p
}

// Put recycles a dead packet. Putting nil (or into a nil pool) is a no-op.
func (pl *PacketPool) Put(p *Packet) {
	if pl == nil || p == nil {
		return
	}
	pl.free = append(pl.free, p)
}

// Sink returns a Handler that absorbs and recycles every packet delivered
// to it — the pool-aware replacement for a discard-everything closure,
// used for cross-traffic sinks.
func (pl *PacketPool) Sink() Handler {
	return HandlerFunc(func(p *Packet) { pl.Put(p) })
}

// Handler consumes packets. Links deliver to Handlers; transports and nodes
// implement it. Delivery transfers ownership of the packet: the final
// consumer may recycle it into a PacketPool (see PacketPool's rules).
type Handler interface {
	Handle(pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *Packet)

// Handle calls f(pkt).
func (f HandlerFunc) Handle(pkt *Packet) { f(pkt) }
