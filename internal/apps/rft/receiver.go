package rft

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Receiver tracks the chunk ledger of one transfer and reports progress
// on the periodic client ACK: a cumulative ACK, the distinct-chunk count,
// and up to netsim.RFTResendEntries missing-chunk ranges re-derived from
// the ledger every tick (the report is stateless, so a lost report costs
// nothing). It implements netsim.Handler for arriving chunk packets.
//
// The ledger invariant — every chunk is delivered to the application
// exactly once, regardless of loss, reordering, duplication or link
// retunes — is enforced here: OnChunk fires on a chunk's first arrival
// only, and the transfer completes exactly when all Chunks distinct
// chunks have arrived.
type Receiver struct {
	sched *sim.Scheduler
	out   netsim.Handler
	cfg   Config

	// got is the chunk ledger bitmap; the backing array is reused across
	// transfers and resets.
	got        []uint64
	received   int64
	nextNeeded int64
	maxSeen    int64
	epoch      int64
	ackSeq     int64

	running   bool
	complete  bool
	lastAckAt sim.Time
	pktID     uint64
	ackTimer  sim.Timer
	ackFn     func()

	lastDataSend    sim.Time
	lastDataArrival sim.Time

	// CompletedAt is when the final chunk arrived — the receiver-side
	// completion instant the flow completion time is measured to.
	CompletedAt sim.Time

	// Statistics (cumulative across Restart generations).
	DataIn     uint64 // chunk packets accepted (current epoch)
	Duplicates uint64 // chunks that had already arrived
	StaleData  uint64 // previous-epoch chunks dropped
	AcksOut    uint64
	Transfers  uint64 // transfers completed

	// OnChunk observes every first-time chunk delivery — the ledger
	// hook property tests assert exactly-once delivery with. Nil-safe.
	OnChunk func(seq int64, at sim.Time)
	// OnComplete fires when the final chunk arrives. Nil-safe.
	OnComplete func(at sim.Time)
}

// NewReceiver builds the transfer sink; out is where client ACKs are
// injected (normally the receiver-side node).
func NewReceiver(sched *sim.Scheduler, out netsim.Handler, cfg Config) *Receiver {
	if sched == nil || out == nil {
		panic("rft: NewReceiver requires scheduler and output")
	}
	r := &Receiver{sched: sched, out: out}
	r.ackFn = r.onAckTick
	r.Reset(cfg)
	return r
}

// Reset rewinds the receiver — ledger, cursors, report counter and
// statistics — to the state NewReceiver(sched, out, cfg) would produce,
// keeping the warm bitmap capacity. The owning scheduler must have been
// reset first.
func (r *Receiver) Reset(cfg Config) {
	cfg.fillDefaults()
	cfg.validate()
	r.cfg = cfg
	r.epoch = 0
	r.DataIn = 0
	r.Duplicates = 0
	r.StaleData = 0
	r.AcksOut = 0
	r.Transfers = 0
	r.pktID = 0
	r.OnChunk = nil
	r.OnComplete = nil
	r.rewindTransfer()
}

// rewindTransfer clears the ledger for a new transfer.
func (r *Receiver) rewindTransfer() {
	words := int(r.cfg.Chunks+63) / 64
	if cap(r.got) < words {
		r.got = make([]uint64, words)
	} else {
		r.got = r.got[:words]
		for i := range r.got {
			r.got[i] = 0
		}
	}
	r.received = 0
	r.nextNeeded = 0
	r.maxSeen = -1
	r.ackSeq = 0
	r.running = false
	r.complete = false
	r.lastAckAt = 0
	r.ackTimer = sim.Timer{}
	r.lastDataSend = 0
	r.lastDataArrival = 0
	r.CompletedAt = 0
}

// Received reports the distinct-chunk count of the current transfer.
func (r *Receiver) Received() int64 { return r.received }

// Complete reports whether the current transfer has fully arrived.
func (r *Receiver) Complete() bool { return r.complete }

// Has reports whether the given chunk has arrived.
func (r *Receiver) Has(seq int64) bool {
	if seq < 0 || seq >= r.cfg.Chunks {
		return false
	}
	return r.got[seq>>6]&(1<<uint(seq&63)) != 0
}

// Handle implements netsim.Handler for arriving chunk packets; the
// receiver is their final consumer.
func (r *Receiver) Handle(p *netsim.Packet) {
	if p.Kind != netsim.Data || p.Flow != r.cfg.Flow {
		r.cfg.Pool.Put(p)
		return
	}
	if p.Ack != r.epoch {
		r.StaleData++
		r.cfg.Pool.Put(p)
		return
	}
	now := r.sched.Now()
	seq := p.Seq
	send := p.SendTime
	r.cfg.Pool.Put(p)
	if seq < 0 || seq >= r.cfg.Chunks {
		return
	}
	r.DataIn++
	r.lastDataSend = send
	r.lastDataArrival = now
	if r.Has(seq) {
		r.Duplicates++
		// A duplicate after completion means the completion ACK was
		// lost and the sender is probing; re-ACK (rate-limited) so the
		// pair converges.
		if r.complete && now.Sub(r.lastAckAt) >= r.cfg.AckInterval/2 {
			r.sendAck(now)
		}
		return
	}
	r.got[seq>>6] |= 1 << uint(seq&63)
	r.received++
	if seq > r.maxSeen {
		r.maxSeen = seq
	}
	for r.nextNeeded < r.cfg.Chunks && r.Has(r.nextNeeded) {
		r.nextNeeded++
	}
	if r.OnChunk != nil {
		r.OnChunk(seq, now)
	}
	if r.received == r.cfg.Chunks {
		r.complete = true
		r.Transfers++
		r.CompletedAt = now
		r.stopAcks()
		r.sendAck(now) // the completion report
		if r.OnComplete != nil {
			r.OnComplete(now)
		}
		return
	}
	if !r.running {
		r.running = true
		// Seeded phase jitter, like the GCC feedback cadence, so
		// co-located transfers spread their reports over the interval.
		jitter := sim.Duration(uint64(sim.SubSeed(r.cfg.Seed, 1)) % uint64(r.cfg.AckInterval))
		r.ackTimer = r.sched.After(r.cfg.AckInterval/2+jitter/2, r.ackFn)
	}
}

func (r *Receiver) onAckTick() {
	r.ackTimer = sim.Timer{}
	if !r.running || r.complete {
		return
	}
	r.sendAck(r.sched.Now())
	r.ackTimer = r.sched.After(r.cfg.AckInterval, r.ackFn)
}

// sendAck emits one client report: cumulative ACK, distinct count, and
// the lowest missing-chunk ranges between the cumulative ACK and the
// highest chunk seen.
func (r *Receiver) sendAck(now sim.Time) {
	r.ackSeq++
	r.pktID++
	p := r.cfg.Pool.Get()
	p.ID = r.pktID
	p.Flow = r.cfg.Flow
	p.Kind = netsim.Feedback
	p.Size = 64
	p.Src = r.cfg.Dst // receiver address
	p.Dst = r.cfg.Src // back to the sender
	p.SendTime = now
	p.HasRFTAck = true
	fb := &p.Report().RFT
	fb.Epoch = r.epoch
	fb.AckSeq = r.ackSeq
	fb.NextNeeded = r.nextNeeded
	fb.Received = r.received
	fb.Complete = r.complete
	fb.Timestamp = r.lastDataSend
	fb.Delay = now.Sub(r.lastDataArrival)
	fb.NumResend = 0
	if !r.complete {
		r.fillResend(fb)
	}
	r.lastAckAt = now
	r.AcksOut++
	r.out.Handle(p)
}

// fillResend scans the ledger from the cumulative ACK to the highest
// chunk seen and records up to RFTResendEntries missing ranges, lowest
// first. Remaining gaps are picked up by later reports.
func (r *Receiver) fillResend(fb *netsim.RFTFeedback) {
	c := r.nextNeeded
	for fb.NumResend < netsim.RFTResendEntries && c < r.maxSeen {
		for c < r.maxSeen && r.Has(c) {
			c++
		}
		if c >= r.maxSeen {
			return
		}
		start := c
		for c < r.maxSeen && !r.Has(c) {
			c++
		}
		fb.Resend[fb.NumResend] = netsim.RFTRange{Start: start, End: c}
		fb.NumResend++
	}
}

// stopAcks cancels the periodic report timer.
func (r *Receiver) stopAcks() {
	r.running = false
	r.sched.Cancel(r.ackTimer)
	r.ackTimer = sim.Timer{}
}

// restart advances the receiver into the next transfer generation,
// clearing the ledger while preserving observers.
func (r *Receiver) restart() {
	r.stopAcks()
	epoch := r.epoch
	r.rewindTransfer()
	r.epoch = epoch + 1
}
