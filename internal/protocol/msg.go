// Package protocol holds everything the two coherence protocols share: the
// coherence message vocabulary, the simulated machine (per-node CPUs, L2
// data caches, network interfaces), the nominal configuration of the
// paper's Table 2, and the latency accounting the evaluation section
// reports.
package protocol

import "fmt"

// MsgType enumerates coherence messages. The first four are common to both
// protocols; Inv/InvAck/Fwd/WbNotice belong to the baseline directory
// protocol; Teardown/TdAck to the in-network protocol.
type MsgType uint8

// Message types.
const (
	RdReq MsgType = iota
	WrReq
	RdReply
	WrReply
	Inv      // directory: invalidate a sharer
	InvAck   // directory: sharer acknowledges invalidation
	Fwd      // directory: forward read to a sharer/owner
	FwdDone  // directory: sharer served a forwarded read; home can unbusy
	FwdMiss  // directory: forwarded-to sharer no longer holds the line
	WbNotice // directory: owner eviction notice to home
	Teardown // in-network: tear down a virtual tree
	TdAck    // in-network: teardown acknowledgment collapsing toward home
)

func (t MsgType) String() string {
	switch t {
	case RdReq:
		return "RD_REQ"
	case WrReq:
		return "WR_REQ"
	case RdReply:
		return "RD_REPLY"
	case WrReply:
		return "WR_REPLY"
	case Inv:
		return "INV"
	case InvAck:
		return "INV_ACK"
	case Fwd:
		return "FWD"
	case FwdDone:
		return "FWD_DONE"
	case FwdMiss:
		return "FWD_MISS"
	case WbNotice:
		return "WB_NOTICE"
	case Teardown:
		return "TEARDOWN"
	case TdAck:
		return "TD_ACK"
	case freedMsg:
		return "FREED"
	}
	return fmt.Sprintf("MsgType(%d)", uint8(t))
}

// IsData reports whether messages of this type carry a data cache line and
// therefore occupy a multi-flit packet.
func (t MsgType) IsData() bool { return t == RdReply || t == Fwd }

// Msg is the protocol payload of a network packet.
type Msg struct {
	Type      MsgType
	Addr      uint64
	Requester int // node whose access this message serves

	// Version is the data version carried by data-bearing messages.
	Version uint64

	// RequesterIsRoot marks replies that build a fresh virtual tree
	// whose root is the requesting node (first load from memory, victim
	// hit at home, and every write); replies that graft a branch onto
	// an existing tree leave it false and orient new links toward the
	// existing root.
	RequesterIsRoot bool

	// IssuedAt is the cycle the originating access entered the memory
	// system, for latency accounting.
	IssuedAt int64

	// Attempt is the requester's reissue epoch for this access, stamped
	// into requests and carried through every message of the serving
	// chain. When fault-layer retry is armed, a reply whose Attempt no
	// longer matches the requester's current epoch is a stale survivor
	// of an abandoned attempt and is dropped at the requester instead of
	// completing the access twice.
	Attempt uint16

	// DeadlockCycles accumulates cycles this access spent in timeout
	// detection and backoff (Table 4's metric).
	DeadlockCycles int64

	// Backoff is set on requests regenerated by deadlock recovery; the
	// home node delays them a random 20-100 cycles before processing.
	Backoff bool

	// HomeServe marks a request the in-network router steered into the
	// home node's NIC with the home-serve serialization marker held;
	// any other ejection of a request is a race and must re-route.
	HomeServe bool

	// HasData marks teardown acknowledgments carrying the root's
	// (clean) data to the home node for victim caching.
	HasData bool

	// BuiltLast records whether a reply's most recent hop constructed a
	// new virtual link at the node it departed (as opposed to following
	// an existing tree link). The timeout abort uses it to decide
	// whether the arrival edge is a dangling construction that must be
	// cleared or a live tree edge that the in-progress teardown will
	// collapse on its own.
	BuiltLast bool

	// ForcedDir steers hop-by-hop messages (teardowns and teardown
	// acks travel along virtual tree links, not toward destinations):
	// the spawning router emits the packet out exactly this port and the
	// receiving router consumes and reprocesses it.
	ForcedDir uint8

	// ForcedMask, when non-zero, is the hardware-multicast form of
	// ForcedDir: a bitmask of output ports (bit d = port d) the spawning
	// router forks the hop message across, one copy per set bit, instead
	// of the protocol spawning one packet per link. Only teardowns use it
	// (Config.Multicast); the fork clears it on every copy.
	ForcedMask uint8

	// Unlink marks a teardown acknowledgment that removes a dangling
	// link on a live (untouched) line: a grafting reply that re-entered
	// the tree sends one back so the one-way edge it would otherwise
	// leave behind is erased at creation time.
	Unlink bool

	// ClearArrival marks an abort teardown sent by a timed-out reply:
	// the receiving node first clears the dangling link on which the
	// message arrived (the link the reply had built toward a node where
	// it then failed to allocate) before normal teardown processing.
	ClearArrival bool
}

// Become rewrites msg in place as type t carrying version, the next message
// of its access's chain: the address, requester, issue cycle, recovery
// cycles and attempt are kept, and every other field is zeroed, exactly as
// a fresh message built from those fields would be.
func (msg *Msg) Become(t MsgType, version uint64) {
	*msg = Msg{Type: t, Addr: msg.Addr, Requester: msg.Requester, Version: version,
		IssuedAt: msg.IssuedAt, DeadlockCycles: msg.DeadlockCycles, Attempt: msg.Attempt}
}
