package ratectl

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// EstimatorKind selects the receiver's delay-gradient filter.
type EstimatorKind uint8

// Estimator choices.
const (
	// EstimatorKalman uses the scalar Kalman arrival-time filter.
	EstimatorKalman EstimatorKind = iota
	// EstimatorTrendline uses the linear-regression trendline filter.
	EstimatorTrendline
)

// GCCConfig parameterizes a delay-based (GCC-style) sender/receiver pair.
// Src/Dst are the sender's addresses, like TFRCConfig; the receiver swaps
// them for feedback.
type GCCConfig struct {
	Flow int
	Src  int
	Dst  int

	PktSize int // bytes (default 1000)

	// InitialRTT seeds the sender's pacing before the first feedback
	// (default 100 ms).
	InitialRTT sim.Duration
	// Estimator selects the delay-gradient filter (default Kalman).
	Estimator EstimatorKind
	// Seed desynchronizes the flow's feedback phase: the first report is
	// jittered by a SubSeed-derived fraction of the interval, so flows
	// sharing a bottleneck do not report in lockstep. Part of the world's
	// SubSeed chain — equal (config, seed) means an identical flow.
	Seed int64
	// Pool, when set, supplies data and feedback packets — the world's
	// shared freelist. Nil means plain allocation.
	Pool *netsim.PacketPool
}

// GCC rate constants: the target starts at gccInitialRate (1 Mbps) and
// never falls below gccMinRate, both in bytes/second, and has no cap; the
// receiver reports every gccFeedbackInterval.
const (
	gccInitialRate      = 125_000
	gccMinRate          = 12_500
	gccFeedbackInterval = 50 * sim.Millisecond
)

func (c *GCCConfig) fillDefaults() {
	if c.PktSize == 0 {
		c.PktSize = 1000
	}
	if c.InitialRTT == 0 {
		c.InitialRTT = 100 * sim.Millisecond
	}
}

// GCCSender paces data packets at the receiver-reported target rate. Loss
// never touches the rate — the delay gradient is the only congestion
// signal, which is exactly the property the loss-vs-delay showdown
// measures. It implements netsim.Handler for feedback packets.
type GCCSender struct {
	sched *sim.Scheduler
	out   netsim.Handler
	cfg   GCCConfig

	rate    float64 // bytes/second
	rtt     sim.Duration
	hasRTT  bool
	seq     int64
	pktID   uint64
	running bool
	timer   sim.Timer
	nfTimer sim.Timer

	// Precreated timer callbacks keep the steady-state emit/rearm loop
	// allocation-free (the scheduler's event freelist does the rest).
	emitFn  func()
	nfFn    func()
	startFn func()

	// Statistics.
	Sent       uint64
	FeedbackIn uint64

	// OnRate observes every applied feedback target (rate-trace tests and
	// the showdown's rate sampling). Nil-safe.
	OnRate func(rate float64, at sim.Time)
}

// NewGCCSender builds a delay-based source injecting into out (normally
// the sender-side node).
func NewGCCSender(sched *sim.Scheduler, out netsim.Handler, cfg GCCConfig) *GCCSender {
	if sched == nil || out == nil {
		panic("ratectl: NewGCCSender requires scheduler and output")
	}
	cfg.fillDefaults()
	s := &GCCSender{sched: sched, out: out, cfg: cfg, rate: gccInitialRate, rtt: cfg.InitialRTT}
	s.emitFn = s.onEmit
	s.nfFn = s.onNoFeedback
	s.startFn = s.Start
	return s
}

// Start begins transmission.
func (s *GCCSender) Start() {
	if s.running {
		return
	}
	s.running = true
	s.armNoFeedback()
	s.onEmit()
}

func (s *GCCSender) onEmit() {
	s.timer = sim.Timer{}
	s.pktID++
	p := s.cfg.Pool.Get()
	p.ID = s.pktID
	p.Flow = s.cfg.Flow
	p.Kind = netsim.Data
	p.Size = s.cfg.PktSize
	p.Seq = s.seq
	p.Src = s.cfg.Src
	p.Dst = s.cfg.Dst
	p.SendTime = s.sched.Now()
	s.seq++
	s.Sent++
	s.out.Handle(p)
	gap := sim.Duration(float64(s.cfg.PktSize) / s.rate * float64(sim.Second))
	if gap < sim.Microsecond {
		gap = sim.Microsecond
	}
	s.timer = s.sched.After(gap, s.emitFn)
}

// Handle implements netsim.Handler: apply a receiver report. The sender is
// the feedback packet's final consumer and recycles it.
func (s *GCCSender) Handle(p *netsim.Packet) {
	if p.Kind != netsim.Feedback || !p.HasRateFB || p.Flow != s.cfg.Flow {
		s.cfg.Pool.Put(p)
		return
	}
	s.FeedbackIn++
	fb := p.Report().Rate
	s.cfg.Pool.Put(p)

	if sample := s.sched.Now().Sub(fb.Timestamp) - fb.Delay; sample > 0 {
		if !s.hasRTT {
			s.rtt = sample
			s.hasRTT = true
		} else {
			s.rtt = sim.Duration(0.9*float64(s.rtt) + 0.1*float64(sample))
		}
	}

	s.rate = max(fb.TargetRate, gccMinRate)
	if s.OnRate != nil {
		s.OnRate(s.rate, s.sched.Now())
	}
	s.armNoFeedback()
}

// armNoFeedback (re)arms the report-loss safety valve: with no receiver
// report for 8 feedback intervals (a reverse-path outage) the rate halves,
// so a sender cannot keep blasting a dead path at its last known target.
func (s *GCCSender) armNoFeedback() {
	s.sched.Cancel(s.nfTimer)
	s.nfTimer = s.sched.After(8*gccFeedbackInterval, s.nfFn)
}

func (s *GCCSender) onNoFeedback() {
	s.nfTimer = sim.Timer{}
	s.rate = max(s.rate/2, gccMinRate)
	if s.OnRate != nil {
		s.OnRate(s.rate, s.sched.Now())
	}
	s.armNoFeedback()
}

// rateWindow is the receive-rate measurement window.
const rateWindow = 100 * sim.Millisecond

// GCCReceiver runs the receiver-side pipeline: inter-arrival packet-group
// grouping, a delay-gradient estimator (Kalman or trendline), the adaptive
// threshold overuse detector and the AIMD controller, with the resulting
// target rate reported back on the feedback cadence. Why receiver-side:
// the one-way delay gradient needs the arrival timestamps, and computing
// it where they are taken avoids shipping a timestamp per packet back to
// the sender — the REMB-style architecture the GCC draft specifies. It
// implements netsim.Handler for arriving data packets.
type GCCReceiver struct {
	sched *sim.Scheduler
	out   netsim.Handler
	cfg   GCCConfig

	ia      InterArrival
	kalman  KalmanEstimator
	trend   TrendlineEstimator
	est     GradientEstimator // points at kalman or trend; no allocation
	det     OveruseDetector
	aimd    AIMDController
	lossCtl LossController
	pktID   uint64
	fbTimer sim.Timer
	fbFn    func()
	running bool

	lastDataSend    sim.Time // SendTime of the newest data packet
	lastDataArrival sim.Time

	// Receive-rate measurement: bytes accumulated over rateWindow spans.
	winStart sim.Time
	winBytes int64
	recvRate float64 // last completed window's rate, bytes/second

	// Per-report loss accounting for the loss-based backstop: data
	// sequence numbers are gapless at the sender, so max-seq deltas give
	// the offered count and arrivals the delivered count.
	maxSeq     int64 // highest sequence seen, -1 before any data
	fbMaxSeq   int64 // maxSeq at the previous report
	fbReceived int64 // arrivals since the previous report

	// Statistics.
	Received   uint64
	BytesIn    uint64
	Groups     uint64
	Overuses   uint64 // detector verdicts of overuse at group completion
	AppliedFB  uint64 // feedback packets emitted
	LastTarget float64

	// OnData observes every arriving data packet (delay/goodput
	// accounting in the showdown). Observers must copy, not retain.
	OnData func(p *netsim.Packet, at sim.Time)
}

// NewGCCReceiver builds the receiver; out is where feedback packets are
// injected (normally the receiver-side node).
func NewGCCReceiver(sched *sim.Scheduler, out netsim.Handler, cfg GCCConfig) *GCCReceiver {
	if sched == nil || out == nil {
		panic("ratectl: NewGCCReceiver requires scheduler and output")
	}
	cfg.fillDefaults()
	r := &GCCReceiver{sched: sched, out: out, cfg: cfg, maxSeq: -1, fbMaxSeq: -1}
	r.fbFn = r.onFeedbackTick
	r.kalman.Reset()
	if cfg.Estimator == EstimatorTrendline {
		r.est = &r.trend
	} else {
		r.est = &r.kalman
	}
	r.det.Reset()
	r.aimd.Reset(gccInitialRate, gccMinRate, 0)
	r.lossCtl.Reset(gccInitialRate, gccMinRate, 0)
	return r
}

// TargetRate reports the controller's current target in bytes/second:
// the minimum of the delay-based AIMD target and the loss-based backstop.
func (r *GCCReceiver) TargetRate() float64 {
	t := r.aimd.Rate()
	if l := r.lossCtl.Rate(); l < t {
		t = l
	}
	return t
}

// Handle implements netsim.Handler for arriving data packets; the receiver
// is their final consumer.
func (r *GCCReceiver) Handle(p *netsim.Packet) {
	if p.Kind != netsim.Data || p.Flow != r.cfg.Flow {
		r.cfg.Pool.Put(p)
		return
	}
	now := r.sched.Now()
	r.Received++
	r.BytesIn += uint64(p.Size)
	if r.OnData != nil {
		r.OnData(p, now)
	}
	r.lastDataSend = p.SendTime
	r.lastDataArrival = now
	if p.Seq > r.maxSeq {
		r.maxSeq = p.Seq
	}
	r.fbReceived++

	// Receive-rate window.
	if r.winStart == 0 {
		r.winStart = now
	}
	r.winBytes += int64(p.Size)
	if elapsed := now.Sub(r.winStart); elapsed >= rateWindow {
		r.recvRate = float64(r.winBytes) / elapsed.Seconds()
		r.winStart = now
		r.winBytes = 0
	}

	// The pipeline: group → gradient → detector → AIMD.
	if d, ok := r.ia.Add(p.SendTime, now, p.Size); ok {
		r.Groups++
		offset := r.est.Update(d)
		state := r.det.Update(offset, now)
		if state == StateOveruse {
			r.Overuses++
		}
		r.LastTarget = r.aimd.Update(state, r.recvRate, now)
	}
	r.cfg.Pool.Put(p)

	if !r.running {
		r.running = true
		r.scheduleFirstFeedback()
	}
}

// scheduleFirstFeedback arms the report timer with the seeded phase
// jitter, so co-located flows spread their reports over the interval.
func (r *GCCReceiver) scheduleFirstFeedback() {
	jitter := sim.Duration(uint64(sim.SubSeed(r.cfg.Seed, 1)) % uint64(gccFeedbackInterval))
	r.fbTimer = r.sched.After(gccFeedbackInterval/2+jitter/2, r.fbFn)
}

func (r *GCCReceiver) onFeedbackTick() {
	r.fbTimer = sim.Timer{}
	r.sendFeedback()
	r.fbTimer = r.sched.After(gccFeedbackInterval, r.fbFn)
}

func (r *GCCReceiver) sendFeedback() {
	now := r.sched.Now()

	// Fold this report interval's loss fraction into the backstop.
	if r.fbMaxSeq >= 0 && r.maxSeq > r.fbMaxSeq {
		offered := r.maxSeq - r.fbMaxSeq
		lost := offered - r.fbReceived
		if lost < 0 {
			lost = 0
		}
		r.lossCtl.Update(float64(lost)/float64(offered), r.recvRate)
	}
	r.fbMaxSeq = r.maxSeq
	r.fbReceived = 0

	r.pktID++
	p := r.cfg.Pool.Get()
	p.ID = r.pktID
	p.Flow = r.cfg.Flow
	p.Kind = netsim.Feedback
	p.Size = 40
	p.Src = r.cfg.Dst // receiver address
	p.Dst = r.cfg.Src // back to the sender
	p.SendTime = now
	p.HasRateFB = true
	p.Report().Rate = netsim.RateFeedback{
		TargetRate: r.TargetRate(),
		RecvRate:   r.recvRate,
		Timestamp:  r.lastDataSend,
		Delay:      now.Sub(r.lastDataArrival),
	}
	r.AppliedFB++
	r.out.Handle(p)
}

// GCCFlow bundles a delay-based sender/receiver pair wired onto a
// topology's endpoint nodes, mirroring tcp.Flow.
type GCCFlow struct {
	Sender   *GCCSender
	Receiver *GCCReceiver
}

// NewGCCFlow wires a delay-based flow between two endpoint nodes. The
// supplied cfg's Flow/Src/Dst fields are filled in from the flow id and
// the nodes' addresses; other fields are respected.
func NewGCCFlow(sched *sim.Scheduler, snd, rcv *netsim.Node, flowID int, cfg GCCConfig) *GCCFlow {
	cfg.Flow = flowID
	cfg.Src = snd.Addr
	cfg.Dst = rcv.Addr
	s := NewGCCSender(sched, snd, cfg)
	r := NewGCCReceiver(sched, rcv, cfg)
	snd.Bind(flowID, s)
	rcv.Bind(flowID, r)
	return &GCCFlow{Sender: s, Receiver: r}
}

// StartAt schedules the flow to begin at the given simulated time.
func (f *GCCFlow) StartAt(sched *sim.Scheduler, at sim.Time) {
	if at <= sched.Now() {
		f.Sender.Start()
		return
	}
	sched.At(at, f.Sender.startFn)
}
