// Package netem emulates the paper's network model and its
// generalizations: flows and cross-traffic sources traverse a Topology of
// named nodes and directed Links (each with its own queue, AQM, and
// capacity schedule) along per-flow Routes. The paper's Fig. 2
// single-bottleneck network is the trivial one-hop topology. It is the
// stand-in for the Mahimahi emulator used in the paper: a packet-level
// discrete-event model with drop-tail, PIE and CoDel queues.
package netem

import "nimbus/internal/sim"

// FlowID identifies a flow in the topology.
type FlowID uint32

// Packet is a data packet traversing the topology. On routes with an
// ideal (pure-delay) reverse path, ACKs are not modelled as packets — ACK
// delivery is a scheduled event with the flow's reverse propagation
// delay, exactly the paper's model. On routes whose ACK direction crosses
// links, the ACK state rides through those links' queues as a small
// packet (AckSize bytes), so the reverse path can be congested.
type Packet struct {
	Flow FlowID
	Seq  uint64
	Size int // bytes, including headers

	SentAt     sim.Time // when the sender emitted it
	EnqueuedAt sim.Time // when it entered the current hop's queue
	QueueDelay sim.Time // total time spent queued across hops (excludes transmission)

	// Delivered is the receiver's cumulative delivered-byte count,
	// stamped by a transport's receiver when the packet arrives: the
	// delivered packet then travels the reverse path as its own ACK.
	Delivered uint64

	// Raw marks cross-traffic packets injected without a transport
	// (CBR/Poisson sources). They are counted at the receiver side but
	// generate no ACKs.
	Raw bool

	// fluidMark is the link-local FIFO position of the packet relative
	// to the fluid cross-traffic process: the link's cumulative
	// delivered-plus-standing fluid bytes when the packet enqueued
	// (see Link.flushFluidAhead). Stamped per hop by Send on fluid
	// links; meaningless (and unread) elsewhere.
	fluidMark float64

	// Routing state, owned by the topology: the route the packet follows,
	// its position on it, and the direction (data vs. ACK). ACK packets
	// carry their sender-side delivery callback so the reverse traversal
	// stays allocation-free.
	route  *Route
	hop    int16
	rev    bool
	ackFn  func(arg any)
	ackArg any
}

// AckSize is the wire size of an ACK packet on congested reverse paths
// (a TCP ACK with options, rounded up).
const AckSize = 64

// DefaultMSS is the segment size used throughout, matching a typical
// 1500-byte Ethernet MTU minus headers plus our accounting convention: we
// count 1500 bytes on the wire per full segment.
const DefaultMSS = 1500
