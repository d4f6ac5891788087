// Package tcp implements the transport protocols the paper studies on top
// of the netsim substrate: window-based NewReno TCP (RFC 2582) with slow
// start, congestion avoidance, fast retransmit and fast recovery, plus the
// two implementation styles the paper contrasts — ordinary (bursty) window
// transmission and TCP Pacing, which spreads the congestion window evenly
// over the RTT and is the paper's canonical "rate-based implementation".
// An optional ECN mode implements the congestion reaction used by the
// paper's proposed extension. The RTO clamps and the ACK size are package
// constants.
package tcp

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Protocol constants.
const (
	ackSize    = 40                    // ACK packet size in bytes
	minRTO     = 200 * sim.Millisecond // floor of the computed RTO
	maxRTO     = 60 * sim.Second       // ceiling of the RTO, backoff included
	initialRTO = sim.Second            // RTO before the first RTT sample
)

// Config parameterizes a Sender.
type Config struct {
	Flow int // flow id, unique per experiment
	Src  int // sender node address
	Dst  int // receiver node address

	PktSize int // data packet size in bytes (default 1000, like ns-2)

	// Paced turns the sender into the paper's rate-based implementation:
	// instead of transmitting the whole usable window back to back, data
	// packets leave one pacing interval (srtt/cwnd) apart.
	Paced bool
	// PaceQuantum is how many packets each pacing tick releases (default
	// 1). Larger quanta re-introduce micro-bursts; the ablation bench
	// sweeps this.
	PaceQuantum int

	// ECN makes data packets ECN-capable and halves cwnd on echoed marks
	// (at most once per RTT), instead of waiting for drops.
	ECN bool

	// TotalPackets ends the flow after this many packets are delivered
	// (the parallel-transfer workload); 0 or negative means unlimited.
	TotalPackets int64

	// Pool, when set, supplies data packets and receives consumed ACKs —
	// the world's shared packet freelist. The sender and its receiver
	// normally share one pool (NewPairFlow wires both ends). Nil means
	// plain allocation.
	Pool *netsim.PacketPool

	InitialCwnd     float64      // default 2 packets (paper: "two packets every round trip")
	InitialSSThresh float64      // default 1e9 (effectively unbounded)
	MaxCwnd         float64      // default 1e9
	InitialRTT      sim.Duration // pacing estimate before the first RTT sample (default 100 ms)
}

func (c *Config) fillDefaults() {
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.PaceQuantum <= 0 {
		c.PaceQuantum = 1
	}
	if c.InitialCwnd == 0 {
		c.InitialCwnd = 2
	}
	if c.InitialSSThresh == 0 {
		c.InitialSSThresh = 1e9
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 1e9
	}
	if c.InitialRTT == 0 {
		c.InitialRTT = 100 * sim.Millisecond
	}
}

// Sender is a packet-level TCP source in the ns-2 tradition: sequence
// numbers count packets, the receiver acks cumulatively, and a drop is
// recovered by fast retransmit or timeout. It implements netsim.Handler to
// receive ACKs.
type Sender struct {
	sched *sim.Scheduler
	out   netsim.Handler
	cfg   Config

	cwnd     float64
	ssthresh float64

	nextSeq     int64 // next new sequence number to transmit
	maxSent     int64 // highest sequence ever transmitted + 1 (for go-back-N)
	cumAck      int64 // highest cumulative ack received (next expected seq)
	dupAcks     int
	inRec       bool  // in fast recovery
	recover     int64 // highest seq sent when recovery started
	recoverFrom int64 // cumAck when recovery started (Impatient timer rule)

	est     rttEstimator
	backoff int // RTO exponential backoff shift

	rtoTimer  sim.Timer
	paceTimer sim.Timer

	// Timer callbacks are created once so rearming a timer costs no
	// closure allocation: the scheduler's event freelist plus these two
	// function values make the per-ACK RTO restart allocation-free.
	rtoFn  func()
	paceFn func()

	timedSeq int64 // sequence currently being timed for RTT, -1 if none
	timedAt  sim.Time

	lastECNCut sim.Time // time of the last ECN-triggered reduction
	pktID      uint64

	done bool

	// Statistics.
	Sent             uint64 // data packets transmitted (including retransmissions)
	Retransmits      uint64
	AcksIn           uint64
	CongestionEvents uint64 // window reductions: fast retransmit, timeout, or ECN
	Timeouts         uint64
	CompletedAt      sim.Time

	// OnComplete fires once when TotalPackets are delivered.
	OnComplete func(at sim.Time)
}

// NewSender creates a TCP sender that injects packets into out (normally a
// netsim.Node bound to the sender's address).
func NewSender(sched *sim.Scheduler, out netsim.Handler, cfg Config) *Sender {
	if sched == nil || out == nil {
		panic("tcp: NewSender requires scheduler and output")
	}
	cfg.fillDefaults()
	s := &Sender{
		sched:    sched,
		out:      out,
		cfg:      cfg,
		cwnd:     cfg.InitialCwnd,
		ssthresh: cfg.InitialSSThresh,
		timedSeq: -1,
	}
	s.rtoFn = s.onTimeout
	s.paceFn = s.onPaceTick
	return s
}

// Start begins transmission at the current simulated time.
func (s *Sender) Start() { s.trySend() }

// InFlight reports the number of unacknowledged packets.
func (s *Sender) InFlight() int64 { return s.nextSeq - s.cumAck }

// Done reports whether a finite flow has delivered all its data.
func (s *Sender) Done() bool { return s.done }

// SRTT exposes the smoothed RTT estimate (initial estimate before samples).
func (s *Sender) SRTT() sim.Duration { return s.est.SRTT(s.cfg.InitialRTT) }

// Out returns the sender's current packet sink.
func (s *Sender) Out() netsim.Handler { return s.out }

// SetOut replaces the packet sink; instrumentation (e.g. the TCP-trace
// methodology study) wraps the original handler to observe transmissions.
func (s *Sender) SetOut(h netsim.Handler) {
	if h == nil {
		panic("tcp: SetOut(nil)")
	}
	s.out = h
}

// window is the usable congestion window in whole packets. Outside
// recovery the first two duplicate ACKs each admit one extra segment
// (Limited Transmit, RFC 3042), so flows with small windows can still
// reach the three duplicate ACKs that trigger fast retransmit instead of
// stalling into a timeout.
func (s *Sender) window() int64 {
	w := s.cwnd
	if !s.inRec && s.dupAcks > 0 && s.dupAcks < 3 {
		w += float64(s.dupAcks)
	}
	if w > s.cfg.MaxCwnd {
		w = s.cfg.MaxCwnd
	}
	if w < 1 {
		w = 1
	}
	return int64(w)
}

// trySend transmits as permitted: the whole usable window at once for the
// window-based implementation, or via the pacing timer for the rate-based
// one.
func (s *Sender) trySend() {
	if s.done {
		return
	}
	if s.cfg.Paced {
		s.schedulePace()
		return
	}
	for s.canSendNew() {
		s.sendData(s.nextSeq, false)
		s.nextSeq++
	}
}

func (s *Sender) canSendNew() bool {
	if s.done {
		return false
	}
	if s.cfg.TotalPackets > 0 && s.nextSeq >= s.cfg.TotalPackets {
		return false
	}
	return s.InFlight() < s.window()
}

// schedulePace arms the pacing timer if it is idle and there is something
// to send.
func (s *Sender) schedulePace() {
	if s.paceTimer.Pending() || !s.canSendNew() {
		return
	}
	s.paceTimer = s.sched.After(s.paceInterval(), s.paceFn)
}

// onPaceTick releases one pacing quantum and rearms.
func (s *Sender) onPaceTick() {
	s.paceTimer = sim.Timer{}
	for i := 0; i < s.cfg.PaceQuantum && s.canSendNew(); i++ {
		s.sendData(s.nextSeq, false)
		s.nextSeq++
	}
	s.schedulePace()
}

// paceInterval spaces PaceQuantum packets cwnd times per SRTT. During
// slow start the window doubles within the RTT, so the sender paces at
// twice the window rate (as TCP-pacing implementations do — pacing cwnd
// itself would throttle the doubling and is not what the paper's
// rate-based competitor runs).
func (s *Sender) paceInterval() sim.Duration {
	rtt := s.est.SRTT(s.cfg.InitialRTT)
	w := float64(s.window())
	if s.cwnd < s.ssthresh && !s.inRec {
		w *= 2
	}
	iv := sim.Duration(float64(rtt) / w * float64(s.cfg.PaceQuantum))
	if iv < sim.Microsecond {
		iv = sim.Microsecond
	}
	return iv
}

func (s *Sender) sendData(seq int64, retrans bool) {
	// A go-back-N resend after a timeout arrives here through the normal
	// send path; it is still a retransmission, and Karn's rule must not
	// time it (a short sample from the original copy's ACK would corrupt
	// the RTT estimate).
	if seq < s.maxSent {
		retrans = true
	} else {
		s.maxSent = seq + 1
	}
	s.pktID++
	p := s.cfg.Pool.Get()
	p.ID = s.pktID
	p.Flow = s.cfg.Flow
	p.Kind = netsim.Data
	p.Size = s.cfg.PktSize
	p.Seq = seq
	p.Src = s.cfg.Src
	p.Dst = s.cfg.Dst
	p.SendTime = s.sched.Now()
	p.Retrans = retrans
	p.ECT = s.cfg.ECN
	s.Sent++
	if retrans {
		s.Retransmits++
	}
	// Karn: only time segments that are not retransmissions, one at a time.
	if !retrans && s.timedSeq < 0 {
		s.timedSeq = seq
		s.timedAt = s.sched.Now()
	}
	s.armRTO(false)
	s.out.Handle(p)
}

// armRTO (re)starts the retransmission timer. With restart=true the timer
// is rescheduled even if already pending (used on new cumulative ACKs).
// The cancel-and-rearm pair reuses the same scheduler event: Cancel
// returns it to the world's freelist and After takes it right back, so the
// per-ACK restart allocates nothing.
func (s *Sender) armRTO(restart bool) {
	if s.rtoTimer.Pending() {
		if !restart {
			return
		}
		s.sched.Cancel(s.rtoTimer)
		s.rtoTimer = sim.Timer{}
	}
	d := s.est.RTO() << s.backoff
	if d > maxRTO {
		d = maxRTO
	}
	s.rtoTimer = s.sched.After(d, s.rtoFn)
}

func (s *Sender) stopRTO() {
	if s.rtoTimer.Pending() {
		s.sched.Cancel(s.rtoTimer)
		s.rtoTimer = sim.Timer{}
	}
}

func (s *Sender) onTimeout() {
	s.rtoTimer = sim.Timer{}
	if s.done || s.InFlight() <= 0 {
		return
	}
	s.Timeouts++
	s.CongestionEvents++
	s.backoff++
	if s.backoff > 6 {
		s.backoff = 6
	}
	// Go-back-N like ns-2: collapse to one segment and resend from cumAck.
	pipe := float64(s.InFlight())
	s.ssthresh = maxF(pipe/2, 2)
	s.cwnd = 1
	s.inRec = false
	s.dupAcks = 0
	s.nextSeq = s.cumAck // retransmit from the hole
	s.timedSeq = -1      // Karn: do not time retransmissions
	s.sendData(s.nextSeq, true)
	s.nextSeq++
	s.armRTO(true)
	if s.cfg.Paced {
		s.schedulePace()
	}
}

// Handle implements netsim.Handler: process an incoming ACK. The sender is
// the ACK's final consumer, so the packet is recycled on return.
func (s *Sender) Handle(p *netsim.Packet) {
	if p.Kind != netsim.Ack || p.Flow != s.cfg.Flow {
		return
	}
	if s.done {
		s.cfg.Pool.Put(p)
		return
	}
	s.AcksIn++
	switch {
	case p.Ack > s.cumAck:
		s.onNewAck(p)
	case p.Ack == s.cumAck && s.InFlight() > 0:
		s.onDupAck()
	}
	s.cfg.Pool.Put(p)
}

func (s *Sender) onNewAck(p *netsim.Packet) {
	acked := p.Ack - s.cumAck

	// Any advancing ACK means the network is delivering again: clear the
	// exponential backoff even when Karn's rule suppresses the RTT sample
	// (otherwise a timeout that triggers go-back-N leaves the flow stuck
	// at a backed-off RTO until a fresh sequence is finally timed).
	s.backoff = 0
	// RTT sampling (Karn's rule handled at send time).
	if s.timedSeq >= 0 && p.Ack > s.timedSeq {
		s.est.Sample(s.sched.Now().Sub(s.timedAt))
		s.timedSeq = -1
	}

	if s.inRec {
		if p.Ack > s.recover {
			// Full ACK: deflate to ssthresh, but never beyond what is
			// actually in flight plus one (RFC 2582 §3 step 5's
			// burst-avoidance option).
			pipe := float64(s.nextSeq - p.Ack)
			s.cwnd = minF(s.ssthresh, pipe+1)
			s.inRec = false
			s.dupAcks = 0
		} else {
			// Partial ACK: the next hole is lost too. Retransmit
			// it, deflate by the amount acked, keep recovering. Following
			// the RFC 6582 "Impatient" variant, only the first partial ACK
			// restarts the retransmission timer — a recovery with many
			// holes is cut short by the RTO instead of dribbling one
			// retransmission per RTT for hundreds of RTTs.
			first := s.cumAck == s.recoverFrom
			s.cumAck = p.Ack
			s.cwnd = maxF(s.cwnd-float64(acked)+1, 1)
			s.sendData(p.Ack, true)
			if first {
				s.armRTO(true)
			}
			s.maybeECN(p)
			s.trySend()
			return
		}
	} else {
		s.dupAcks = 0
		// Congestion window growth.
		if s.cwnd < s.ssthresh {
			s.cwnd += float64(acked) // slow start
			if s.cwnd > s.ssthresh {
				s.cwnd = s.ssthresh
			}
		} else {
			s.cwnd += float64(acked) / s.cwnd // congestion avoidance
		}
		if s.cwnd > s.cfg.MaxCwnd {
			s.cwnd = s.cfg.MaxCwnd
		}
	}

	s.cumAck = p.Ack
	s.maybeECN(p)

	if s.cfg.TotalPackets > 0 && s.cumAck >= s.cfg.TotalPackets {
		s.finish()
		return
	}
	if s.InFlight() > 0 {
		s.armRTO(true)
	} else {
		s.stopRTO()
	}
	s.trySend()
}

func (s *Sender) onDupAck() {
	s.dupAcks++
	if s.inRec {
		// Window inflation: each dup ACK signals a departure.
		s.cwnd++
		s.trySend()
		return
	}
	if s.dupAcks < 3 {
		// Limited Transmit: the dup ACK signals a departure; send one new
		// segment if the (temporarily extended) window allows.
		s.trySend()
		return
	}
	if s.dupAcks == 3 {
		// Fast retransmit.
		s.CongestionEvents++
		pipe := float64(s.InFlight())
		s.ssthresh = maxF(pipe/2, 2)
		s.cwnd = s.ssthresh + 3
		s.inRec = true
		s.recover = s.nextSeq - 1
		s.recoverFrom = s.cumAck
		s.timedSeq = -1
		s.sendData(s.cumAck, true)
		s.armRTO(true)
		s.trySend()
	}
}

// maybeECN halves the window on an echoed congestion mark, at most once
// per RTT — the reaction the paper's ECN extension assumes.
func (s *Sender) maybeECN(p *netsim.Packet) {
	if !s.cfg.ECN || !p.CE || s.inRec {
		return
	}
	now := s.sched.Now()
	if s.lastECNCut != 0 && now.Sub(s.lastECNCut) < s.SRTT() {
		return
	}
	s.lastECNCut = now
	s.CongestionEvents++
	s.ssthresh = maxF(s.cwnd/2, 2)
	s.cwnd = s.ssthresh
}

func (s *Sender) finish() {
	s.done = true
	s.CompletedAt = s.sched.Now()
	s.stopRTO()
	if s.paceTimer.Pending() {
		s.sched.Cancel(s.paceTimer)
		s.paceTimer = sim.Timer{}
	}
	if s.OnComplete != nil {
		s.OnComplete(s.CompletedAt)
	}
}

func maxF(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
