// Package rft implements a deterministic, simulated-time reliable file
// transfer protocol in the style of rftp: the file is split into
// fixed-size chunks, the receiver tracks a chunk ledger and reports
// progress on a periodic client ACK carrying a cumulative ACK plus a
// bounded list of missing-chunk ranges (resend entries), and the sender
// paces chunks at an AIMD-controlled rate whose multiplicative decrease is
// gated by a cool-off period of ≈1.5 RTTs of ACKs — halving at most once
// per window of six reports, exactly the rftp AIMD rule. It runs on the
// netsim/sim substrate with pooled packets and precreated timer
// callbacks, and rewinds via Reset/ResetPair like the TCP and GCC
// families, so steady-state transfer seconds are allocation-free on a
// cached world.
//
// The protocol is the application-layer counterpart of the paper's
// burstiness finding: clustered sub-RTT losses erase whole chunk runs,
// which turn into resend entries, retransmission rounds and long
// flow-completion tails that independent losses of the same mean rate do
// not produce. TransferAgg (stats.go) makes flow completion time a
// mergeable first-class metric for the sweep and fleet layers.
package rft

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// DecreaseCoolOff is the AIMD decrease cool-off in client ACKs: after a
// multiplicative decrease the sender ignores resend entries for this many
// reports. At the default four reports per RTT that is 1.5 RTTs — long
// enough for the halved rate to take effect end to end before the next
// halving, per the rftp AIMD.
const DecreaseCoolOff = 6

// acksPerRTT is the nominal client ACK cadence relative to the RTT: the
// default AckInterval is InitialRTT/acksPerRTT, making DecreaseCoolOff
// ACKs span 1.5 RTTs.
const acksPerRTT = 4

// aiChunksPerAck is the additive-increase step in chunks per clean ACK,
// sized so the rate grows by roughly one chunk per ACK-interval slot of
// the RTT — the packets-per-tick increment of the rftp controller mapped
// onto byte-rate pacing.
const aiChunksPerAck = 4

// slowStartGrowth is the per-clean-ACK rate multiplier before the first
// multiplicative decrease, the startup ramp that replaces TCP slow start.
// At four ACKs per RTT this compounds to ≈2x per RTT — TCP's doubling.
// Anything steeper overshoots the bottleneck by the growth accrued during
// one RTT of feedback lag, and with the decrease gated to once per
// cool-off the sender can shed at most 2x per 1.5 RTT: a ramp faster than
// the shed rate buries the queue for many RTTs and erases whole files.
const slowStartGrowth = 1.19

// resendQueueCap bounds how many chunks one client ACK may enqueue for
// retransmission. Gaps beyond the cap are re-reported by later ACKs (the
// receiver re-derives its missing set every tick), so the bound costs
// only latency, never correctness.
const resendQueueCap = 1024

// Config parameterizes a transfer pair. Src/Dst are the sender's
// addresses; the receiver swaps them for the client ACK stream.
type Config struct {
	Flow int
	Src  int
	Dst  int

	// ChunkSize is the chunk payload size in bytes (default 1000).
	ChunkSize int
	// Chunks is the file length in chunks (default 1024).
	Chunks int64

	// InitialRTT seeds the sender's pacing, retransmission suppression
	// and the default ACK cadence before the first report (default
	// 100 ms).
	InitialRTT sim.Duration
	// AckInterval is the receiver's client ACK cadence (default
	// InitialRTT/4, floored at 1 ms).
	AckInterval sim.Duration
	// InitialRate is the starting target in bytes/second (default
	// 125000, i.e. 1 Mbps).
	InitialRate float64
	// MinRate floors the target in bytes/second (default 12500).
	MinRate float64
	// MaxRate caps the target in bytes/second (default none).
	MaxRate float64
	// Seed desynchronizes the receiver's ACK phase, like the GCC
	// feedback jitter: part of the world's SubSeed chain.
	Seed int64
	// Pool, when set, supplies chunk and ACK packets — the world's
	// shared freelist. Nil means plain allocation.
	Pool *netsim.PacketPool
}

func (c *Config) fillDefaults() {
	if c.ChunkSize == 0 {
		c.ChunkSize = 1000
	}
	if c.Chunks == 0 {
		c.Chunks = 1024
	}
	if c.InitialRTT == 0 {
		c.InitialRTT = 100 * sim.Millisecond
	}
	if c.AckInterval == 0 {
		c.AckInterval = c.InitialRTT / acksPerRTT
		if c.AckInterval < sim.Millisecond {
			c.AckInterval = sim.Millisecond
		}
	}
	if c.InitialRate == 0 {
		c.InitialRate = 125_000
	}
	if c.MinRate == 0 {
		c.MinRate = 12_500
	}
}

// validate rejects configurations the transfer cannot run.
func (c *Config) validate() {
	if c.Chunks < 0 || c.ChunkSize < 0 {
		panic(fmt.Sprintf("rft: negative chunk geometry %d×%d", c.Chunks, c.ChunkSize))
	}
}

// Sender paces chunk packets at the AIMD-controlled rate, retransmitting
// the chunks the client ACK's resend entries report missing. It
// implements netsim.Handler for the client ACK stream.
type Sender struct {
	sched *sim.Scheduler
	out   netsim.Handler
	cfg   Config

	rate   float64 // bytes/second
	rtt    sim.Duration
	hasRTT bool
	// epoch is the transfer generation: Restart bumps it on both
	// endpoints, and packets carry it so a stale in-flight chunk or ACK
	// from the previous transfer can never corrupt the next one.
	epoch int64

	coolOff int64 // remaining ACKs before a decrease is allowed again
	// lastDecrease time-gates the next decrease at 1.5 current RTTs: the
	// report cadence is fixed at InitialRTT/4, so when queueing inflates
	// the real RTT well past InitialRTT, DecreaseCoolOff reports alone
	// would span far less than the 1.5 RTTs the cool-off is meant to be —
	// and the sender would shed rate several times before one decrease
	// has reflected in the feedback.
	lastDecrease sim.Time
	slowStart    bool // multiplicative growth until the first decrease
	lastAckSeq   int64
	next         int64 // next new chunk to transmit

	// resendQ is the retransmission schedule, rebuilt from each ACK's
	// resend entries: chunks reported missing whose last transmission is
	// at least one suppression window old. The backing array is reused
	// across ACKs, runs and resets.
	resendQ   []int64
	resendPos int
	// sentAt records each chunk's last transmission time, the
	// suppression clock that keeps one loss from being repaired four
	// times (the receiver re-reports a gap on every ACK until the
	// retransmission lands, ~one RTT at four reports per RTT).
	sentAt []sim.Time

	pktID   uint64
	running bool
	done    bool
	idle    bool // pacing loop parked at probe cadence (nothing eligible)
	// lastReceived/lastAdvance implement the tail keep-alive: the highest
	// distinct-chunk count any report carried, and when the transfer last
	// made progress (a transmission or a report that raised the count).
	lastReceived int64
	lastAdvance  sim.Time
	timer        sim.Timer

	emitFn  func()
	startFn func()

	// StartedAt is when the current transfer's transmission began — the
	// FCT clock's zero.
	StartedAt sim.Time
	// CompletedAt is when the completion ACK arrived (zero until then).
	CompletedAt sim.Time

	// Statistics (cumulative across Restart generations).
	Sent          uint64 // chunk transmissions, first-time and repair
	Retransmitted uint64 // repair transmissions only
	TailProbes    uint64 // tail keep-alive probes (lost-final-ACK guard)
	AcksIn        uint64
	StaleAcks     uint64 // reordered or previous-epoch reports dropped
	Decreases     uint64 // multiplicative decreases applied
	Completed     uint64 // transfers completed

	// OnRate observes every applied rate change (rate-trace tests).
	// Nil-safe.
	OnRate func(rate float64, at sim.Time)
	// OnComplete fires when the completion ACK arrives. Nil-safe. The
	// callback may Restart the flow to begin the next transfer.
	OnComplete func(at sim.Time)
}

// NewSender builds a transfer source injecting into out (normally the
// sender-side node).
func NewSender(sched *sim.Scheduler, out netsim.Handler, cfg Config) *Sender {
	if sched == nil || out == nil {
		panic("rft: NewSender requires scheduler and output")
	}
	s := &Sender{sched: sched, out: out}
	s.emitFn = s.onEmit
	s.startFn = s.Start
	s.Reset(cfg)
	return s
}

// Reset rewinds the sender to the state NewSender(sched, out, cfg) would
// produce, keeping the scheduler, output, precreated callbacks and the
// warm resend/suppression capacity. The owning scheduler must have been
// reset first.
func (s *Sender) Reset(cfg Config) {
	cfg.fillDefaults()
	cfg.validate()
	s.cfg = cfg
	s.epoch = 0
	s.Sent = 0
	s.Retransmitted = 0
	s.TailProbes = 0
	s.AcksIn = 0
	s.StaleAcks = 0
	s.Decreases = 0
	s.Completed = 0
	s.OnRate = nil
	s.OnComplete = nil
	s.rewindTransfer()
}

// rewindTransfer resets the per-transfer state: rate, RTT estimate, AIMD
// phase, chunk cursor, resend schedule and suppression clocks.
func (s *Sender) rewindTransfer() {
	s.rate = s.cfg.InitialRate
	s.rtt = s.cfg.InitialRTT
	s.hasRTT = false
	s.coolOff = 0
	s.lastDecrease = 0
	s.slowStart = true
	s.lastAckSeq = 0
	s.next = 0
	s.resendQ = s.resendQ[:0]
	s.resendPos = 0
	if n := int(s.cfg.Chunks); cap(s.sentAt) < n {
		s.sentAt = make([]sim.Time, n)
	} else {
		s.sentAt = s.sentAt[:n]
		for i := range s.sentAt {
			s.sentAt[i] = 0
		}
	}
	s.running = false
	s.done = false
	s.idle = false
	s.lastReceived = 0
	s.lastAdvance = 0
	s.timer = sim.Timer{}
	s.StartedAt = 0
	s.CompletedAt = 0
}

// Rate reports the current sending rate in bytes/second.
func (s *Sender) Rate() float64 { return s.rate }

// RTT reports the current RTT estimate.
func (s *Sender) RTT() sim.Duration { return s.rtt }

// Done reports whether the current transfer has completed.
func (s *Sender) Done() bool { return s.done }

// Epoch reports the current transfer generation.
func (s *Sender) Epoch() int64 { return s.epoch }

// TransferBytes is the payload volume of one transfer.
func (s *Sender) TransferBytes() int64 {
	return s.cfg.Chunks * int64(s.cfg.ChunkSize)
}

// Start begins (or resumes) the current transfer's transmission.
func (s *Sender) Start() {
	if s.running || s.done {
		return
	}
	s.running = true
	s.StartedAt = s.sched.Now()
	s.lastAdvance = s.StartedAt
	if s.cfg.Chunks == 0 {
		// An empty file is complete by definition; there is nothing for
		// the receiver to ACK.
		s.complete(s.sched.Now())
		return
	}
	s.onEmit()
}

// Stop halts transmission without completing the transfer.
func (s *Sender) Stop() {
	s.running = false
	s.sched.Cancel(s.timer)
	s.timer = sim.Timer{}
}

// pick selects the next chunk to transmit: repair first, then new data.
func (s *Sender) pick() (seq int64, repair, ok bool) {
	if s.resendPos < len(s.resendQ) {
		seq = s.resendQ[s.resendPos]
		s.resendPos++
		return seq, true, true
	}
	if s.next < s.cfg.Chunks {
		seq = s.next
		s.next++
		return seq, false, true
	}
	return 0, false, false
}

func (s *Sender) onEmit() {
	s.timer = sim.Timer{}
	if !s.running || s.done {
		return
	}
	if seq, repair, ok := s.pick(); ok {
		s.idle = false
		s.send(seq, repair)
		gap := sim.Duration(float64(s.cfg.ChunkSize) / s.rate * float64(sim.Second))
		if gap < sim.Microsecond {
			gap = sim.Microsecond
		}
		s.timer = s.sched.After(gap, s.emitFn)
		return
	}
	// Tail: everything is in flight. Park at the ACK cadence; the next
	// report either completes the transfer or refills the repair queue.
	// If the transfer makes no progress for 1.5 RTTs — a lost completion
	// ACK, or a tail burst that erased everything past the receiver's
	// horizon, which its gap-range reports cannot see — re-probe the last
	// chunk so the pair can never deadlock. On a clean tail the in-flight
	// chunks keep raising the reported count until the completion ACK
	// lands, so no probe fires.
	s.idle = true
	now := s.sched.Now()
	if now.Sub(s.lastAdvance) > s.rtt*3/2 {
		s.TailProbes++
		s.send(s.cfg.Chunks-1, true)
		s.lastAdvance = now
	}
	s.timer = s.sched.After(s.cfg.AckInterval, s.emitFn)
}

// send transmits one chunk and stamps its suppression clock.
func (s *Sender) send(seq int64, repair bool) {
	now := s.sched.Now()
	s.pktID++
	p := s.cfg.Pool.Get()
	p.ID = s.pktID
	p.Flow = s.cfg.Flow
	p.Kind = netsim.Data
	p.Size = s.cfg.ChunkSize
	p.Seq = seq
	p.Ack = s.epoch // transfer generation; receivers drop other epochs
	p.Src = s.cfg.Src
	p.Dst = s.cfg.Dst
	p.SendTime = now
	p.Retrans = repair
	s.Sent++
	if repair {
		s.Retransmitted++
	}
	s.sentAt[seq] = now
	s.out.Handle(p)
}

// Handle implements netsim.Handler: apply a client ACK. The sender is the
// report's final consumer and recycles it.
func (s *Sender) Handle(p *netsim.Packet) {
	if p.Kind != netsim.Feedback || !p.HasRFTAck || p.Flow != s.cfg.Flow {
		s.cfg.Pool.Put(p)
		return
	}
	fb := p.Report().RFT
	s.cfg.Pool.Put(p)
	if fb.Epoch != s.epoch || fb.AckSeq <= s.lastAckSeq {
		s.StaleAcks++
		return
	}
	if s.done {
		return
	}
	now := s.sched.Now()
	delta := fb.AckSeq - s.lastAckSeq
	s.lastAckSeq = fb.AckSeq
	s.AcksIn++
	if fb.Received > s.lastReceived {
		s.lastReceived = fb.Received
		s.lastAdvance = now
	}

	if sample := now.Sub(fb.Timestamp) - fb.Delay; sample > 0 && fb.Timestamp > 0 {
		if !s.hasRTT {
			s.rtt = sample
			s.hasRTT = true
		} else {
			s.rtt = sim.Duration(0.9*float64(s.rtt) + 0.1*float64(sample))
		}
	}

	if fb.Complete {
		s.complete(now)
		return
	}

	// The rftp AIMD: the cool-off counts down by the report-number delta
	// (lost reports still age it), a clean report grows the rate, and
	// resend entries halve it only once the cool-off has expired.
	if s.coolOff > 0 {
		s.coolOff -= delta
		if s.coolOff < 0 {
			s.coolOff = 0
		}
	}
	if fb.NumResend == 0 {
		if s.slowStart {
			s.rate *= slowStartGrowth
		} else {
			// Additive increase, normalized to the current RTT: the step is
			// aiChunksPerAck chunks per report at the nominal acksPerRTT
			// cadence, but the report cadence is fixed while the real RTT
			// inflates with queueing — scale the step down so the growth
			// stays aiChunksPerAck*acksPerRTT chunks per actual RTT.
			step := aiChunksPerAck * acksPerRTT * float64(s.cfg.ChunkSize) *
				float64(s.cfg.AckInterval) / float64(s.rtt)
			s.rate += step
		}
		if s.cfg.MaxRate > 0 && s.rate > s.cfg.MaxRate {
			s.rate = s.cfg.MaxRate
		}
	} else {
		if s.coolOff == 0 && now.Sub(s.lastDecrease) >= s.rtt*3/2 {
			s.rate /= 2
			if s.rate < s.cfg.MinRate {
				s.rate = s.cfg.MinRate
			}
			s.coolOff = DecreaseCoolOff
			s.lastDecrease = now
			s.slowStart = false
			s.Decreases++
		}
		s.refillResend(fb, now)
	}
	if s.OnRate != nil {
		s.OnRate(s.rate, now)
	}
	// If the pacing loop parked at the tail cadence and this report
	// brought repair work, resume immediately instead of waiting out the
	// probe timer.
	if s.idle && s.resendPos < len(s.resendQ) {
		s.sched.Cancel(s.timer)
		s.onEmit()
	}
}

// refillResend rebuilds the repair schedule from one report's resend
// entries, suppressing chunks whose last transmission is younger than
// 3/4 of an RTT — those are likely in flight (a repair takes a full RTT
// to reflect in the ACK stream, which re-reports the gap ~4 times
// meanwhile).
func (s *Sender) refillResend(fb netsim.RFTFeedback, now sim.Time) {
	s.resendQ = s.resendQ[:0]
	s.resendPos = 0
	suppress := s.rtt * 3 / 4
	for i := 0; i < fb.NumResend; i++ {
		r := fb.Resend[i]
		if r.Start < 0 || r.End > s.cfg.Chunks {
			continue
		}
		for c := r.Start; c < r.End; c++ {
			if now.Sub(s.sentAt[c]) < suppress {
				continue
			}
			if len(s.resendQ) >= resendQueueCap {
				return
			}
			s.resendQ = append(s.resendQ, c)
		}
	}
}

// complete finishes the current transfer.
func (s *Sender) complete(at sim.Time) {
	s.done = true
	s.Completed++
	s.CompletedAt = at
	s.Stop()
	if s.OnComplete != nil {
		s.OnComplete(at)
	}
}

// restart advances the sender into the next transfer generation and
// begins transmitting immediately. Observers (OnRate, OnComplete) are
// preserved; AIMD state, cursors and the suppression clocks rewind.
func (s *Sender) restart() {
	s.Stop()
	epoch := s.epoch
	s.rewindTransfer()
	s.epoch = epoch + 1
	s.Start()
}
