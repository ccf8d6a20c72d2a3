// Package network implements the on-chip interconnect: a fabric of wormhole
// routers with configurable pipeline depth, per-port virtual channel FIFOs,
// age-based output arbitration and deterministic minimal routing, following
// the canonical router organization the paper assumes (Section 2.3,
// Figure 4). The fabric's shape lives behind the Topology interface: the
// paper's open 2D mesh with X-Y routing (Mesh2D), its wraparound variant
// (Torus2D) and a bidirectional ring (Ring) all drive the same router; a
// router has Topology.Degree() inter-router ports plus the local
// injection/ejection port and a generation port for protocol-spawned
// traffic.
//
// Packets are modeled at packet granularity with flit-accurate link
// occupancy: a packet's head flit spends the router's pipeline depth in each
// router and one cycle per link, and the packet holds its output link for as
// many cycles as it has flits, so multi-flit data packets serialize and
// contend exactly as wormhole flows do.
//
// Protocol logic is injected via the Policy interface, the package's
// rendering of the paper's central idea: the in-network protocol supplies a
// Policy whose routing decision consults the router's virtual tree cache and
// may consume packets, spawn new ones (teardowns, replies) or stall a packet
// in place; the baseline protocol supplies a plain X-Y destination-routing
// Policy.
package network

import (
	"fmt"
	"math/bits"
)

// Dir identifies a router port. Inter-router ports are 0..Degree()-1 on
// every topology; on the mesh and torus the four carry their compass names
// and double as virtual tree link identifiers in the in-network protocol's
// tree cache lines. Local is the node's injection/ejection port on every
// topology regardless of degree (the router maps it to its own port slot).
type Dir uint8

// Port directions. Local is the node's injection/ejection port.
const (
	North Dir = iota
	South
	East
	West
	Local
	DirNone // sentinel: no direction
)

func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case South:
		return "S"
	case East:
		return "E"
	case West:
		return "W"
	case Local:
		return "L"
	case DirNone:
		return "-"
	}
	return fmt.Sprintf("Dir(%d)", uint8(d))
}

// Opposite returns the port a packet sent out d arrives on at the neighbor.
func (d Dir) Opposite() Dir {
	switch d {
	case North:
		return South
	case South:
		return North
	case East:
		return West
	case West:
		return East
	}
	return DirNone
}

// VC is a virtual-channel class. The mesh is built with a configurable
// number of classes; the coherence protocols in this repository use a single
// class for all message types because the in-network protocol depends on
// same-path FIFO ordering between replies and the teardowns that chase them
// (Section 2.4's "the teardown message will simply propagate out the new
// link as if it had been a part of the tree from the start" relies on a
// teardown never overtaking the reply that built the link).
type VC uint8

// Packet is one network packet. Payload carries the protocol message and is
// opaque to the network layer.
type Packet struct {
	ID      uint64
	Src     int // injecting node
	Dst     int // destination node for destination-routed packets
	Class   VC
	Flits   int
	Payload interface{}

	// DstSet, when non-nil, makes this a hardware-multicast packet: one
	// packet carrying a destination set. DestPolicy routes it toward the
	// set and forks clones at fan-out routers where members part ways;
	// each copy collapses to a plain unicast (DstSet nil) once it carries
	// a single destination. Dst tracks the lowest member for debugging
	// and checksum stability; the routing authority is the set.
	DstSet NodeSet

	// ArrivalDir is the port this packet entered the current router on:
	// Local for freshly injected or protocol-spawned packets. The
	// in-network protocol uses it to orient new virtual tree links.
	ArrivalDir Dir

	// Checksum is the packet's header integrity word. When fault
	// injection is armed, Inject/spawn stamp it (Checksum over the
	// immutable header fields) and every router verifies it before
	// routing; a corruption fault flips it on a link and the next
	// router's mismatch check discards the packet. Zero and unchecked
	// when the mesh has no fault injector.
	Checksum uint64

	// Retryable marks packets the protocol layer can reissue from
	// scratch (coherence requests); default-scope fault plans drop only
	// these, keeping every run recoverable within the retry budget.
	Retryable bool

	// Expedited marks protocol-spawned continuation packets (teardowns
	// and acks percolating along tree links) whose routing work was
	// already performed by the pipeline stage that spawned them: they
	// enter arbitration immediately instead of re-paying the router
	// pipeline.
	Expedited bool

	// Hops counts link traversals, for the hop-count studies.
	Hops int
	// InjectedAt is the cycle the packet first entered a router.
	InjectedAt int64

	// routed caches the policy decision so Route runs once per hop
	// unless the policy stalls the packet. outSlot is the granted output
	// port slot (inter-router ports by number, then the local port).
	// routeSeq is the global age stamp used by oldest-first output
	// arbitration.
	routed   bool
	outSlot  int
	routeSeq uint64
	// pooled marks packets allocated from the mesh free-list
	// (Mesh.AllocPacket): the mesh recycles them when they leave the
	// network. Packets built as plain literals (tests, external drivers)
	// have it false and are never recycled, so references a test harness
	// retains past delivery stay valid.
	pooled bool
	// stallStart is the cycle the packet first stalled at this router,
	// for the protocol's timeout-based deadlock recovery.
	stallStart int64
	// serialWait accumulates cycles this packet's head spent routed but
	// waiting for its output link to finish serializing a previous
	// packet's flits. Only charged when mesh metrics are enabled.
	serialWait int64
}

// SerialWait returns the accumulated link-serialization wait, for the
// metrics latency decomposition. Zero unless mesh metrics are enabled.
func (p *Packet) SerialWait() int64 { return p.serialWait }

// ChecksumOf computes p's header integrity word: a splitmix64 mix over the
// header fields (ID, Src, Dst, Class, Flits). The payload is excluded
// deliberately — it is a protocol message the engines mutate hop by hop —
// so the word is stable from injection to ejection unless a fault flips
// it. The one legitimate in-flight mutation is a multicast fork or
// collapse rewriting Dst, and DestPolicy restamps the word there, after
// the router's own verification has already accepted the packet.
func ChecksumOf(p *Packet) uint64 {
	x := p.ID*0x9E3779B97F4A7C15 ^
		uint64(p.Src)<<1 ^ uint64(p.Dst)<<17 ^
		uint64(p.Class)<<33 ^ uint64(p.Flits)<<41
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// StallCycles returns how long the packet has been stalled at the current
// router, or 0 if it is not stalled.
func (p *Packet) StallCycles(now int64) int64 {
	if p.stallStart == 0 {
		return 0
	}
	return now - p.stallStart
}

// Steer is a Policy's routing decision for one packet at one router.
type Steer struct {
	// Out is the output port to request. Local ejects the packet to the
	// node's network interface. Ignored if Consume or Stall is set.
	Out Dir
	// Consume removes the packet from the network without ejecting it
	// through the local port; protocol engines use this for messages
	// they absorb in-network (e.g. acknowledgments terminating at the
	// home node, or requests queued at the home router).
	Consume bool
	// Stall leaves the packet at the head of its input FIFO; the policy
	// is consulted again next cycle. Packets behind it in the same FIFO
	// are blocked (head-of-line), which is what the paper's timeout
	// mechanism exists to bound.
	Stall bool
	// Spawn lists packets the protocol generates at this router (e.g.
	// teardowns). They enter the router's generation queue and arbitrate
	// for outputs like any other traffic.
	Spawn []*Packet
}

// Policy decides, for each packet reaching the end of a router's pipeline,
// where it goes next. Implementations hold all protocol state (tree caches,
// home-node queues). Route is called when the packet first becomes ready
// and, if it stalls, once per cycle thereafter.
type Policy interface {
	Route(r *Router, p *Packet, now int64) Steer
}

// NodeSet is a bitset of node ids, the destination set of a multicast
// packet. The zero value is the empty set; Add grows it as needed.
type NodeSet []uint64

// Add returns the set with node n included, growing the backing words if
// needed (append semantics: use the return value).
func (s NodeSet) Add(n int) NodeSet {
	for len(s) <= n/64 {
		s = append(s, 0)
	}
	s[n/64] |= 1 << (uint(n) % 64)
	return s
}

// Count returns the number of members.
func (s NodeSet) Count() int {
	c := 0
	for _, w := range s {
		c += bits.OnesCount64(w)
	}
	return c
}

// Min returns the lowest member, or -1 if the set is empty.
func (s NodeSet) Min() int {
	for i, w := range s {
		if w != 0 {
			return i*64 + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// ForEach calls fn for every member in ascending order.
func (s NodeSet) ForEach(fn func(n int)) {
	for i, w := range s {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(i*64 + b)
			w &^= 1 << uint(b)
		}
	}
}
