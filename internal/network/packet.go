// Package network simulates the GS1280 inter-processor interconnect: the
// EV7 router (§2 of the paper) with per-class virtual channels, two-level
// arbitration approximated by per-output-port priority queues, and minimal
// adaptive routing with a deterministic dimension-ordered escape path.
//
// The model is per-packet cut-through: a hop costs a fixed router pipeline
// latency plus the wire latency of the link class (module trace, backplane,
// or cable), while the packet's serialization time occupies the link for
// bandwidth accounting. Responses are prioritized over Forwards over
// Requests, mirroring the coherence-protocol channel ordering that lets the
// 21364 drain Responses independently of Requests.
package network

import (
	"gs1280/internal/sim"
	"gs1280/internal/topology"
)

// Class is a coherence-protocol packet class. Each class travels in its own
// set of virtual channels so that, as the paper puts it, "a Response packet
// can never block behind a Request packet".
type Class int

const (
	// Request carries a read/read-modify request toward a directory.
	Request Class = iota
	// Forward carries a directory-initiated forward or invalidate.
	Forward
	// Response carries data or completion acknowledgements.
	Response
	// IO carries I/O traffic; it may not use the adaptive channel.
	IO
	numClasses
)

func (c Class) String() string {
	switch c {
	case Request:
		return "request"
	case Forward:
		return "forward"
	case Response:
		return "response"
	case IO:
		return "io"
	}
	return "Class(?)"
}

// priority orders classes at an output port; higher drains first. The
// coherence dependence chain is Request -> Forward -> Response, so the
// deeper a class sits in the chain the higher its priority must be for the
// network to guarantee forward progress.
func (c Class) priority() int {
	switch c {
	case Response:
		return 3
	case Forward:
		return 2
	case Request:
		return 1
	default:
		return 0
	}
}

// adaptiveAllowed reports whether the class may use the adaptive virtual
// channel. I/O packets are restricted to the deterministic channels.
func (c Class) adaptiveAllowed() bool { return c != IO }

// Criticality classifies a packet by how much a processor is waiting on
// it, following the demand/background split of criticality-aware
// multiprocessor proposals: a demand miss stalls an instruction stream, a
// victim writeback does not. It is orthogonal to Class — Class encodes
// the coherence dependence chain (deadlock correctness), Criticality
// encodes urgency (performance) — and it only influences arbitration when
// Params.CritArb is set; histograms are always kept per criticality.
//
// CritDemand is the zero value, so untagged packets (every caller that
// predates criticality) behave exactly as before.
type Criticality int8

const (
	// CritDemand marks packets on a processor's stall path: demand-miss
	// requests, the forwards/invalidates they fan out into, and the data
	// or completion responses that end the stall.
	CritDemand Criticality = iota
	// CritControl marks protocol bookkeeping off the stall path: NAKs,
	// victim acknowledgements, ownership-transfer notices.
	CritControl
	// CritBackground marks traffic no instruction is waiting for: victim
	// writebacks and sharing writebacks draining dirty blocks to memory.
	CritBackground
	numCrits
)

func (c Criticality) String() string {
	switch c {
	case CritDemand:
		return "demand"
	case CritControl:
		return "control"
	case CritBackground:
		return "background"
	}
	return "Criticality(?)"
}

// rank orders criticalities at an output port when CritArb is on; higher
// drains first. It is consulted only within one Class queue, never across
// classes, so the deadlock-avoiding Class priority stays absolute.
func (c Criticality) rank() int {
	switch c {
	case CritDemand:
		return 2
	case CritControl:
		return 1
	default:
		return 0
	}
}

// critRankMax is the highest rank; age promotion lifts starved packets to
// it.
const critRankMax = 2

// Packet is one message in flight. Callers populate the routing fields and
// OnDeliver; the network owns the rest.
type Packet struct {
	Src, Dst topology.NodeID
	Class    Class
	// Crit is the packet's criticality, set by the sender at injection
	// (zero value CritDemand preserves pre-criticality behavior). It
	// selects the latency histogram the delivery is recorded into and,
	// when Params.CritArb is on, breaks ties within a Class queue.
	Crit Criticality
	// Size is the packet size in bytes including header, used for link
	// occupancy (a data response carrying a 64-byte block is 72 bytes, a
	// request 24).
	Size int
	// OnDeliver runs at the destination once the packet has been ejected.
	OnDeliver func()

	// Hops counts links traversed so far; routing policies that restrict
	// shuffle links to the first hops consult it.
	Hops int
	// injectedAt stamps entry into the network for latency accounting.
	injectedAt sim.Time
	// enqueuedAt stamps entry into the current output-port queue. It is
	// both the queue-residency sample recorded when the packet wins the
	// wire and the age that CritArb's anti-starvation promotion compares
	// against. Arbitration deliberately ages from port enqueue, not from
	// injection: enqueue order within a queue is then monotone in
	// enqueuedAt, so with every packet in one criticality the "highest
	// rank, earliest enqueue" scan degenerates to exactly the ring-head
	// FIFO — the differential identity the golden replays pin.
	enqueuedAt sim.Time
	// adaptiveOn remembers the link whose adaptive-channel credit this
	// packet holds, so arrival can release it.
	adaptiveOn *link
	// inFlight is set by Send and cleared by deliver just before
	// OnDeliver; Send refuses a packet that still carries it.
	inFlight bool

	// cur is the node whose router routes the packet next; via is the link
	// the packet is currently traversing. Both are parameters of the
	// phase timers below, carried on the packet so one set of pre-bound
	// callbacks serves the packet's whole lifetime — the per-hop
	// pump/route/arrive cycle allocates nothing (see BenchmarkLinkPump).
	cur topology.NodeID
	via *link

	// net is the network that first carried the packet; the phase timers
	// are bound to its engine on first Send. A packet in flight has exactly
	// one phase pending, but the three phases keep separate timers so each
	// callback stays fixed for the packet's lifetime. A Packet must not be
	// copied once sent: the engine wheel links through the timer nodes.
	net                       *Network
	routeT, arriveT, deliverT sim.Timer
}

// Common packet sizes in bytes. The EV7 moves 64-byte cache blocks; control
// packets are a few flits.
const (
	CtlPacketSize  = 24 // request, forward, invalidate, ack
	DataPacketSize = 72 // 64-byte block + header
)
