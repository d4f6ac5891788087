package netsim

import (
	"math/rand"

	"repro/internal/sim"
)

// DumbbellConfig describes the paper's Figure-1 topology: a set of senders
// and receivers joined by a single bottleneck, with per-sender access links
// whose one-way latencies determine the flows' RTTs. topo.NewDumbbell
// builds it (netsim only holds the parameters and the addressing scheme,
// which the transports and cross-traffic sources share).
type DumbbellConfig struct {
	// BottleneckRate is the capacity c of the shared link in bits/second
	// (100 Mbps in the paper).
	BottleneckRate int64
	// BottleneckDelay is the propagation delay of the bottleneck link
	// itself. The paper folds path latency into the access links, so this
	// is typically small.
	BottleneckDelay sim.Duration
	// AccessRate is the capacity of each access link (1 Gbps in the paper).
	AccessRate int64
	// AccessDelays gives the one-way access-link latency for each endpoint
	// pair; flow i's RTT is 2·(AccessDelays[i]·2 + BottleneckDelay·2)
	// ... more precisely: data crosses sender access + bottleneck +
	// receiver access, and the ACK returns the same way, so
	// RTT_i = 4·AccessDelays[i] + 2·BottleneckDelay when sender and
	// receiver access links share the latency. To keep each flow's RTT an
	// explicit input, the builder assigns AccessDelays[i]/2 to each of the
	// sender-side and receiver-side access links, making
	// RTT_i = 2·AccessDelays[i] + 2·BottleneckDelay (+ queueing + tx).
	AccessDelays []sim.Duration
	// Buffer is the bottleneck buffer size in packets.
	Buffer int
	// Queue, if non-nil, overrides the forward bottleneck queue (e.g. a RED
	// queue for the ECN ablation). When nil, a DropTail of size Buffer is
	// used.
	Queue Queue
	// ReverseQueue optionally overrides the reverse-path bottleneck queue.
	ReverseQueue Queue
}

// Endpoint addressing scheme: senders are 1000+i, receivers are 2000+i,
// routers are 1 (left) and 2 (right).
const (
	senderAddrBase = 1000
	recvAddrBase   = 2000
)

// SenderAddr returns the node address of sender i.
func SenderAddr(i int) int { return senderAddrBase + i }

// ReceiverAddr returns the node address of receiver i.
func ReceiverAddr(i int) int { return recvAddrBase + i }

// BDP reports the bandwidth-delay product for a given RTT, in packets of
// the given size — the paper sizes buffers in fractions of this.
func BDP(rate int64, rtt sim.Duration, pktSize int) int {
	bits := float64(rate) * rtt.Seconds()
	pkts := bits / float64(pktSize*8)
	if pkts < 1 {
		return 1
	}
	return int(pkts)
}

// RandomAccessDelays draws n access latencies uniformly from [lo, hi], the
// paper's U[2ms, 200ms] setup for NS-2.
func RandomAccessDelays(rng *rand.Rand, n int, lo, hi sim.Duration) []sim.Duration {
	out := make([]sim.Duration, n)
	for i := range out {
		out[i] = lo + sim.Duration(rng.Int63n(int64(hi-lo)+1))
	}
	return out
}
