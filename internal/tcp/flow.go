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
	r := NewReceiver(sched, rcv, flowID, cfg.Dst, cfg.Src)
	r.SetPool(cfg.Pool)
	rcv.Bind(flowID, r)
	snd.Bind(flowID, s)
	return &Flow{Sender: s, Receiver: r}
}

// StartAt schedules the flow to begin at the given simulated time.
func (f *Flow) StartAt(sched *sim.Scheduler, at sim.Time) {
	if at <= sched.Now() {
		f.Sender.Start()
		return
	}
	sched.At(at, f.Sender.Start)
}
