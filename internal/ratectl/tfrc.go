// Package ratectl implements the rate-based transports of the paper and its
// extensions: TFRC (RFC 3448), the equation-based congestion control whose
// unfair competition against window-based TCP the paper explains, and a
// GCC-style delay-based controller.
package ratectl

import (
	"math"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// TFRCConfig parameterizes a TFRC sender/receiver pair.
type TFRCConfig struct {
	Flow    int
	Src     int
	Dst     int
	PktSize int // bytes (default 1000)

	// InitialRTT seeds the rate before the first feedback (default 100 ms).
	InitialRTT sim.Duration
}

func (c *TFRCConfig) fillDefaults() {
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.InitialRTT == 0 {
		c.InitialRTT = 100 * sim.Millisecond
	}
}

// ThroughputEquation returns the TCP-friendly rate in bytes/second for
// packet size s (bytes), round-trip time r (seconds), and loss event rate
// p, per RFC 3448 §3.1 with b=1 and t_RTO = 4·R:
//
//	X = s / (R·sqrt(2bp/3) + t_RTO·(3·sqrt(3bp/8))·p·(1+32p²))
func ThroughputEquation(s float64, r float64, p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p > 1 {
		p = 1
	}
	tRTO := 4 * r
	den := r*math.Sqrt(2*p/3) + tRTO*(3*math.Sqrt(3*p/8))*p*(1+32*p*p)
	return s / den
}

// TFRCSender paces data packets at the equation-driven rate. It implements
// netsim.Handler to receive feedback packets.
type TFRCSender struct {
	sched *sim.Scheduler
	out   netsim.Handler
	cfg   TFRCConfig

	rate    float64 // bytes per second
	rtt     sim.Duration
	hasRTT  bool
	seq     int64
	pktID   uint64
	running bool
	timer   sim.Timer
	nfTimer sim.Timer // no-feedback timer

	// Statistics.
	Sent           uint64
	FeedbackIn     uint64
	LastLossRate   float64
	RateReductions uint64
}

// NewTFRCSender builds a TFRC source injecting into out.
func NewTFRCSender(sched *sim.Scheduler, out netsim.Handler, cfg TFRCConfig) *TFRCSender {
	if sched == nil || out == nil {
		panic("ratectl: NewTFRCSender requires scheduler and output")
	}
	cfg.fillDefaults()
	s := &TFRCSender{sched: sched, out: out, cfg: cfg}
	s.rtt = cfg.InitialRTT
	// Initial rate: one packet per RTT (RFC 3448 §4.2 allows up to 2-4;
	// we start conservatively, slow start doubles quickly).
	s.rate = float64(cfg.PktSize) / s.rtt.Seconds()
	return s
}

// Start begins transmission.
func (s *TFRCSender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.armNoFeedback()
	s.emit()
}

func (s *TFRCSender) emit() {
	s.pktID++
	s.out.Handle(&netsim.Packet{
		ID:        s.pktID,
		Flow:      s.cfg.Flow,
		Kind:      netsim.Data,
		Size:      s.cfg.PktSize,
		Seq:       s.seq,
		Src:       s.cfg.Src,
		Dst:       s.cfg.Dst,
		SendTime:  s.sched.Now(),
		SenderRTT: s.rtt,
	})
	s.seq++
	s.Sent++
	gap := sim.Duration(float64(s.cfg.PktSize) / s.rate * float64(sim.Second))
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	s.timer = s.sched.After(gap, func() {
		s.timer = sim.Timer{}
		s.emit()
	})
}

// Handle implements netsim.Handler for feedback packets.
func (s *TFRCSender) Handle(p *netsim.Packet) {
	if p.Kind != netsim.Feedback || p.Flow != s.cfg.Flow || p.FeedbackPayload == nil {
		return
	}
	s.FeedbackIn++
	fb := p.FeedbackPayload

	// RTT sample: now − packet timestamp − receiver hold time.
	sample := s.sched.Now().Sub(fb.Timestamp) - fb.Delay
	if sample > 0 {
		if !s.hasRTT {
			s.rtt = sample
			s.hasRTT = true
		} else {
			s.rtt = sim.Duration(0.9*float64(s.rtt) + 0.1*float64(sample))
		}
	}

	s.LastLossRate = fb.LossRate
	r := s.rtt.Seconds()
	if fb.LossRate <= 0 {
		// No loss yet: slow-start-like doubling, capped at twice the rate
		// the receiver reports actually arriving.
		target := 2 * s.rate
		if cap2 := 2 * fb.RecvRate; fb.RecvRate > 0 && target > cap2 {
			target = cap2
		}
		s.rate = target
	} else {
		x := ThroughputEquation(float64(s.cfg.PktSize), r, fb.LossRate)
		if x < s.rate {
			s.RateReductions++
		}
		s.rate = x
	}
	// Never fall below one packet per 8 RTTs.
	floor := float64(s.cfg.PktSize) / (8 * r)
	if s.rate < floor {
		s.rate = floor
	}
	s.armNoFeedback()
}

// armNoFeedback (re)arms the no-feedback timer: absent feedback for 4 RTTs
// the rate halves (RFC 3448 §4.4, simplified).
func (s *TFRCSender) armNoFeedback() {
	s.sched.Cancel(s.nfTimer)
	s.nfTimer = s.sched.After(4*s.rtt, func() {
		s.nfTimer = sim.Timer{}
		s.rate /= 2
		s.RateReductions++
		floor := float64(s.cfg.PktSize) / (8 * s.rtt.Seconds())
		if s.rate < floor {
			s.rate = floor
		}
		s.armNoFeedback()
	})
}

// wali are the RFC 3448 §5.4 loss-interval weights, most recent first.
var wali = []float64{1, 1, 1, 1, 0.8, 0.6, 0.4, 0.2}

// TFRCReceiver detects loss events, maintains the weighted average loss
// interval, and returns feedback once per RTT. It implements
// netsim.Handler for arriving data packets.
type TFRCReceiver struct {
	sched *sim.Scheduler
	out   netsim.Handler
	cfg   TFRCConfig

	expected int64 // next expected sequence
	rtt      sim.Duration
	pktID    uint64
	fbTimer  sim.Timer
	running  bool

	// Loss-event state: sequence numbers where each loss event started,
	// and the arrival time of the event start (for RTT grouping).
	lastEventSeq  int64
	lastEventTime sim.Time
	haveEvent     bool
	intervals     []int64 // closed loss intervals, most recent first

	lastDataTime sim.Time
	lastDataPkt  sim.Time // SendTime of the most recent data packet

	bytesSince   int64 // bytes received since last feedback
	lastFeedback sim.Time

	// Statistics.
	Received   uint64
	LossEvents uint64
	LostPkts   uint64
}

// NewTFRCReceiver builds the receiver; out is where feedback packets go
// (the receiver-side node). The Src/Dst in cfg are the *sender's*
// addresses, i.e. the same config object as the sender's; the receiver
// swaps them for feedback.
func NewTFRCReceiver(sched *sim.Scheduler, out netsim.Handler, cfg TFRCConfig) *TFRCReceiver {
	if sched == nil || out == nil {
		panic("ratectl: NewTFRCReceiver requires scheduler and output")
	}
	cfg.fillDefaults()
	return &TFRCReceiver{sched: sched, out: out, cfg: cfg, rtt: cfg.InitialRTT}
}

// LossEventRate computes p = 1 / I_mean with the WALI average over the
// closed intervals plus the open interval when that raises the average
// (RFC 3448 §5.4). Returns 0 when no loss event has occurred.
func (r *TFRCReceiver) LossEventRate() float64 {
	if !r.haveEvent {
		return 0
	}
	closed := r.avgInterval(r.intervals)
	open := r.expected - r.lastEventSeq // packets since current event started
	withOpen := r.avgInterval(append([]int64{open}, r.intervals...))
	i := closed
	if withOpen > i {
		i = withOpen
	}
	if i <= 0 {
		return 1
	}
	return 1 / i
}

func (r *TFRCReceiver) avgInterval(iv []int64) float64 {
	if len(iv) == 0 {
		return 0
	}
	n := len(iv)
	if n > len(wali) {
		n = len(wali)
	}
	var num, den float64
	for i := 0; i < n; i++ {
		num += wali[i] * float64(iv[i])
		den += wali[i]
	}
	return num / den
}

// Handle implements netsim.Handler for arriving data packets.
func (r *TFRCReceiver) Handle(p *netsim.Packet) {
	if p.Kind != netsim.Data || p.Flow != r.cfg.Flow {
		return
	}
	r.Received++
	r.bytesSince += int64(p.Size)
	r.lastDataTime = r.sched.Now()
	r.lastDataPkt = p.SendTime
	if p.SenderRTT > 0 {
		r.rtt = p.SenderRTT
	}

	if p.Seq > r.expected {
		// Gap: every skipped sequence is lost (FIFO network: no reorder).
		for lost := r.expected; lost < p.Seq; lost++ {
			r.noteLoss(lost)
		}
	}
	if p.Seq >= r.expected {
		r.expected = p.Seq + 1
	}

	if !r.running {
		r.running = true
		r.scheduleFeedback()
	}
}

func (r *TFRCReceiver) noteLoss(seq int64) {
	r.LostPkts++
	now := r.sched.Now()
	if !r.haveEvent {
		r.haveEvent = true
		r.lastEventSeq = seq
		r.lastEventTime = now
		r.LossEvents++
		return
	}
	if now.Sub(r.lastEventTime) <= r.rtt {
		return // same loss event
	}
	// Close the previous interval and start a new event.
	interval := seq - r.lastEventSeq
	if interval < 1 {
		interval = 1
	}
	r.intervals = append([]int64{interval}, r.intervals...)
	if len(r.intervals) > len(wali) {
		r.intervals = r.intervals[:len(wali)]
	}
	r.lastEventSeq = seq
	r.lastEventTime = now
	r.LossEvents++
}

func (r *TFRCReceiver) scheduleFeedback() {
	r.fbTimer = r.sched.After(r.rtt, func() {
		r.fbTimer = sim.Timer{}
		r.sendFeedback()
		r.scheduleFeedback()
	})
}

func (r *TFRCReceiver) sendFeedback() {
	now := r.sched.Now()
	elapsed := now.Sub(r.lastFeedback)
	if elapsed <= 0 {
		return
	}
	recvRate := float64(r.bytesSince) / elapsed.Seconds()
	r.bytesSince = 0
	r.lastFeedback = now
	r.pktID++
	r.out.Handle(&netsim.Packet{
		ID:   r.pktID,
		Flow: r.cfg.Flow,
		Kind: netsim.Feedback,
		Size: 40,
		Src:  r.cfg.Dst, // receiver address
		Dst:  r.cfg.Src, // back to the sender
		FeedbackPayload: &netsim.TFRCFeedback{
			Timestamp: r.lastDataPkt,
			Delay:     now.Sub(r.lastDataTime),
			RecvRate:  recvRate,
			LossRate:  r.LossEventRate(),
		},
	})
}
