package protocol

// Fault recovery: the machine-side half of internal/fault. The network
// injects drops, corruptions and stalls; this file implements what the
// protocol does about them — per-request reply timeouts with bounded
// exponential-backoff reissue, drop NACKs that short-circuit the timeout,
// stale-reply rejection across reissue epochs, and a periodic runtime probe
// of the coherence invariants. Everything here is inert (zero overhead
// beyond a flag check) unless the fault plan's recovery keys arm it.

import (
	"math"

	"innetcc/internal/fault"
	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/stats"
	"innetcc/internal/verify"
)

// fail latches the first fatal fault-layer error; Run's done predicate
// polls it so the simulation stops at the failing cycle.
func (m *Machine) fail(err error) {
	if m.fatal == nil {
		m.fatal = err
	}
}

// Fatal returns the latched fatal fault error, if any (for tests that
// inspect state mid-run).
func (m *Machine) Fatal() error { return m.fatal }

// CurrentAttempt returns the reissue epoch of node's outstanding access.
// Engines stamp it into the requests they build so every message of the
// serving chain carries the epoch it belongs to.
func (m *Machine) CurrentAttempt(node int) uint16 { return m.Nodes[node].attempt }

// DropStaleReply reports whether a reply arriving at node belongs to an
// abandoned reissue epoch (or to no outstanding access at all) and must be
// discarded instead of completing the access. With retry disarmed it never
// fires — replies can then only be current, and any mismatch is a protocol
// bug better caught by the engine's own panics.
func (m *Machine) DropStaleReply(node int, msg *Msg) bool {
	if !m.retryOn {
		return false
	}
	n := m.Nodes[node]
	if acc, ok := n.Pending(); ok && acc.Addr() == msg.Addr && n.attempt == msg.Attempt {
		return false
	}
	m.Counters.Inc(stats.RetryStaleReplies, 1)
	return true
}

// retryOutstanding moves node n's outstanding access to the next reissue
// epoch: bump the attempt, charge exponential backoff, schedule a fresh
// StartMiss, and push the reply deadline out past the new attempt's
// timeout. Called from Tick when the deadline passes, and from
// onPacketDrop as an immediate NACK. Exhausting the budget fails the run
// with a typed, seed-carrying error.
func (m *Machine) retryOutstanding(n *Node, now int64) {
	acc, ok := n.Pending()
	if !ok {
		return
	}
	if m.fatal != nil {
		n.retryAt = math.MaxInt64
		return
	}
	if int(n.attempt) >= m.recovery.Budget {
		m.fail(&fault.RetryExhaustedError{
			Node:     n.ID,
			Addr:     acc.Addr(),
			Write:    acc.Write(),
			Attempts: int(n.attempt) + 1,
			Cycle:    now,
			Seed:     m.Cfg.Seed,
		})
		n.retryAt = math.MaxInt64
		return
	}
	n.attempt++
	m.Counters.Inc(stats.RetryReissues, 1)
	if c := m.Metrics; c != nil {
		c.Event(now, metrics.EvRetry, int16(n.ID), acc.Addr(), int64(n.attempt))
	}
	backoff := m.recovery.Backoff
	if backoff < 1 {
		backoff = 1
	}
	shift := uint(n.attempt - 1)
	if shift > 20 {
		shift = 20 // cap the doubling; budgets are small anyway
	}
	backoff <<= shift
	m.setRetryAt(n, now+backoff+m.recovery.Timeout)
	// A NACK can arrive while the machine is parked with no wake timer;
	// wake it so the new deadline is observed (same pattern as
	// CompleteAccess).
	m.Kernel.Wake(m.tid)
	attempt := n.attempt
	addr, write := acc.Addr(), acc.Write()
	m.Kernel.Schedule(backoff, func() {
		// Reissue only if this epoch is still the live one: the access
		// may have completed (a straggler reply of the old epoch
		// arrived first) or been retried again meanwhile.
		if !n.outstanding || n.attempt != attempt {
			return
		}
		if cur, ok := n.Pending(); !ok || cur.Addr() != addr {
			return
		}
		m.engine.StartMiss(n.ID, addr, write, m.Kernel.Now())
	})
}

// onPacketDrop is the mesh's DropFn when fault injection is armed: count
// the loss, record it, and — when the dead packet was serving some
// requester's current attempt — treat the notification as a NACK and
// reissue immediately instead of waiting out the reply timeout.
func (m *Machine) onPacketDrop(p *network.Packet, reason fault.DropReason, now int64) {
	msg, ok := p.Payload.(*Msg)
	if c := m.Metrics; c != nil {
		var addr uint64
		node := int16(-1)
		if ok {
			addr = msg.Addr
			node = int16(msg.Requester)
		}
		c.Event(now, metrics.EvFaultDrop, node, addr, int64(reason))
	}
	if !ok || !m.retryOn {
		return
	}
	switch msg.Type {
	case RdReq, WrReq, RdReply, WrReply, Fwd, FwdMiss:
		// The serial request/reply chain: exactly one of these is alive
		// per attempt, so its loss means the attempt is dead.
	default:
		// Parallel traffic (invalidations, acks, teardowns) is not
		// replayable; losing it either self-heals or wedges the run
		// into the watchdog's arms.
		return
	}
	req := msg.Requester
	if req < 0 || req >= len(m.Nodes) {
		return
	}
	n := m.Nodes[req]
	acc, pending := n.Pending()
	if !pending || acc.Addr() != msg.Addr || n.attempt != msg.Attempt {
		return
	}
	m.retryOutstanding(n, now)
}

// foldFaultCounters copies the injector's occurrence counts into the
// machine's counters at the end of a run, so results and caches carry them.
// The one-shot guard keeps a segmented run (RunSegment callers may observe
// the terminal state more than once) from double-counting.
func (m *Machine) foldFaultCounters() {
	i := m.faults
	if i == nil || m.faultsFolded {
		return
	}
	m.faultsFolded = true
	m.Counters.Inc(stats.FaultDrops, i.Drops)
	m.Counters.Inc(stats.FaultChecksumDrops, i.ChecksumDrops)
	m.Counters.Inc(stats.FaultCorruptions, i.Corruptions)
	m.Counters.Inc(stats.FaultStallCycles, i.StallCycles)
}

// startInvariantProbe arms the periodic runtime check of the copy-state
// invariants (verify.EndState.CheckCopies: swmr, m-excludes-s,
// no-stale-copy and version-bound). The probe stops rescheduling once
// every node has drained — the end-state self-check covers quiescent
// state, and a perpetually pending probe event would hold off quiescence
// detection forever.
func (m *Machine) startInvariantProbe() {
	every := m.recovery.Probe
	if every <= 0 || m.probeStarted {
		return
	}
	m.probeStarted = true
	var tick func()
	tick = func() {
		m.probeInvariants(m.Kernel.Now())
		if m.fatal == nil && !m.AllDone() {
			m.Kernel.Schedule(every, tick)
		}
	}
	m.Kernel.Schedule(every, tick)
}

// probeInvariants checks the machine's current copy state, observed
// through the same read-only scan as EndState. Any violation is a real
// coherence corruption (the protocols never leave a stale or
// duplicate-writer copy installed, even transiently: commits strictly
// follow invalidation acknowledgment), so the run fails at this cycle
// instead of at the end-state check.
func (m *Machine) probeInvariants(now int64) {
	m.Counters.Inc(stats.FaultProbes, 1)
	const maxViolations = 16
	v := m.EndState("probe").CheckCopies()
	if len(v) > maxViolations {
		v = v[:maxViolations]
	}
	if len(v) > 0 {
		m.fail(&verify.Error{Cycle: now, Seed: m.Cfg.Seed, Violations: v})
	}
}
