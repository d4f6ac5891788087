package tcp

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Flow bundles a sender/receiver pair wired onto an endpoint pair.
type Flow struct {
	Sender   *Sender
	Receiver *Receiver
}

// NewPairFlow wires a TCP flow between two endpoint nodes of any built
// topology. The supplied cfg's Flow/Src/Dst fields are filled in from the
// flow id and the nodes' addresses; other fields are respected.
func NewPairFlow(sched *sim.Scheduler, snd, rcv *netsim.Node, flowID int, cfg Config) *Flow {
	cfg.Flow = flowID
	cfg.Src = snd.Addr
	cfg.Dst = rcv.Addr

	s := NewSender(sched, snd, cfg)
	r := NewReceiver(sched, rcv, flowID, cfg.Dst, cfg.Src, cfg.AckSize)
	r.SetPool(cfg.Pool)
	rcv.Bind(flowID, r)
	snd.Bind(flowID, s)
	return &Flow{Sender: s, Receiver: r}
}

// ResetPair rewinds a flow built by NewPairFlow for another run on a reset
// world: the sender and receiver rewind to their just-built state (see
// Sender.Reset, Receiver.Reset) and re-bind onto the given nodes, which a
// world reset stripped of their transport bindings. The nodes are normally
// the same ones the flow was built on (a cached world keeps its nodes),
// but any pair from the same scheduler works. The scheduler must have been
// reset alongside the world.
func (f *Flow) ResetPair(snd, rcv *netsim.Node, flowID int, cfg Config) {
	cfg.Flow = flowID
	cfg.Src = snd.Addr
	cfg.Dst = rcv.Addr

	f.Sender.Reset(cfg)
	f.Sender.SetOut(snd)
	f.Receiver.Reset(rcv, flowID, cfg.Dst, cfg.Src, cfg.AckSize)
	f.Receiver.SetPool(cfg.Pool)
	rcv.Bind(flowID, f.Receiver)
	snd.Bind(flowID, f.Sender)
}

// GoodputBits reports the bits delivered in-order to the receiver so far
// (cumulative-ack packets times packet size).
func (f *Flow) GoodputBits(pktSize int) int64 {
	return f.Receiver.CumAck() * int64(pktSize) * 8
}

// StartAt schedules the flow to begin at the given simulated time.
func (f *Flow) StartAt(sched *sim.Scheduler, at sim.Time) {
	if at <= sched.Now() {
		f.Sender.Start()
		return
	}
	sched.At(at, f.Sender.Start)
}
