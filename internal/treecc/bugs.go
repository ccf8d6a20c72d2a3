package treecc

import (
	"fmt"
	"strings"
)

// Bug is a deliberately seeded protocol defect. The bits mirror
// internal/mcheck's Mutation set one-for-one: each defect exists in both
// the reduced model (where the exhaustive checker must catch it) and the
// full engine (where the litmus fuzzer's oracles must catch it), which is
// what makes the two-layer verification net's mutation suite evidence of
// detection power rather than of clean runs passing.
//
// Bugs are strictly a test facility: nothing in the engine sets them, and
// a zero mask compiles to the unmodified protocol. The litmus harness sets
// Engine.Bugs right after protocol.Build, before the first cycle runs.
type Bug uint32

const (
	// BugDropAckHold forwards teardown acknowledgments even while the
	// line's outstanding-request bit holds a completion above the network,
	// letting the next grant serialize ahead of the pending access.
	BugDropAckHold Bug = 1 << iota
	// BugAcceptStaleReply skips the reissue-epoch check on replies, so a
	// reply from an abandoned retry attempt completes the current access.
	BugAcceptStaleReply
	// BugDropTdAck tears lines down without sending the acknowledgment,
	// so the home node waits forever for the collapse to terminate.
	BugDropTdAck
	// BugEarlyHomeRelease completes a teardown at the home node as soon as
	// the teardowns fan out, releasing queued requests while outer tree
	// nodes still hold valid data.
	BugEarlyHomeRelease
	// BugSkipInvalidate leaves a torn-down node's L2 data copy valid (and
	// skips the root-data capture), orphaning stale copies.
	BugSkipInvalidate
	// BugLostWriteback drops the memory writeback when a dirty line
	// downgrades (sharer serve) or write-through completes uncached.
	BugLostWriteback
	// BugDoubleGrant ignores the home's pending-serialization marker, so
	// two conflicting requests can be granted concurrently.
	BugDoubleGrant

	numBugs = 7
)

// bugNames maps each bit to its canonical name, shared with the model
// checker's mutation table and litmus reproducer spec files.
var bugNames = [numBugs]string{
	"drop-ack-hold",
	"accept-stale-reply",
	"drop-td-ack",
	"early-home-release",
	"skip-invalidate",
	"lost-writeback",
	"double-grant",
}

// String renders the mask as its canonical names joined by "+" ("none" for
// the zero mask).
func (b Bug) String() string {
	if b == 0 {
		return "none"
	}
	var parts []string
	for i := 0; i < numBugs; i++ {
		if b&(1<<i) != 0 {
			parts = append(parts, bugNames[i])
		}
	}
	if rest := b >> numBugs; rest != 0 {
		parts = append(parts, fmt.Sprintf("Bug(%#x)", uint32(b)))
	}
	return strings.Join(parts, "+")
}

// ParseBug resolves a canonical bug name (or "+"-joined list, or "none").
func ParseBug(s string) (Bug, error) {
	if s == "" || s == "none" {
		return 0, nil
	}
	var mask Bug
next:
	for _, part := range strings.Split(s, "+") {
		for i, name := range bugNames {
			if part == name {
				mask |= 1 << i
				continue next
			}
		}
		return 0, fmt.Errorf("treecc: unknown bug %q (want one of %s)", part, strings.Join(bugNames[:], ", "))
	}
	return mask, nil
}

// hasBug reports whether the seeded-defect mask enables b.
func (e *Engine) hasBug(b Bug) bool { return e.Bugs&b != 0 }
