// State digests: a machine can fold its complete simulation state —
// kernel, CPUs, L2 caches, memory, network and coherence engine — into a
// 64-bit digest. Two runs whose digests agree at a cycle reached the same
// state, which makes the digest the repository's sharpest determinism
// check: the golden tests pin mid-run and end-of-run digests, the segment
// tests compare a paused run with a one-shot one, and the benchmark
// harness gates every timed run on its expected digest.
package protocol

import (
	"sort"

	"innetcc/internal/sim"
	"innetcc/internal/stats"
)

// StateDigester is optionally implemented by coherence engines that fold
// their protocol state (directory caches, virtual tree caches, queued
// requests) into a machine state digest. Both shipped engines implement it;
// an engine that does not simply contributes nothing, weakening — not
// breaking — digest comparisons for that engine.
type StateDigester interface {
	DigestState(d *sim.Digest)
}

// StateDigest folds the machine's live state into a 64-bit digest. It is
// observation-only (no LRU movement, no counters) and deterministic: two
// machines that have performed the same step sequence from the same spec
// produce equal digests, and the active-set kernel's byte-identity
// guarantees extend to it. Call it between RunSegment calls, never
// mid-step.
func (m *Machine) StateDigest() uint64 {
	d := sim.NewDigest()
	m.Kernel.DigestState(d)

	// CPUs and their L2 data caches. ScanAll walks sets and ways in index
	// order without touching LRU state.
	d.Int(len(m.Nodes))
	for _, n := range m.Nodes {
		d.Int(n.idx)
		d.Bool(n.outstanding)
		d.I64(n.issueAt)
		d.I64(n.nextIssue)
		d.U64(uint64(n.attempt))
		d.I64(n.retryAt)
		d.U64(n.rng.State())
		d.Int(n.L2.Len())
		n.L2.ScanAll(func(addr uint64, dl *DataLine) bool {
			d.U64(addr)
			d.Int(int(dl.State))
			d.U64(dl.Version)
			return true
		})
	}

	// Main memory: per-line versions in address order.
	snap := m.Mem.Snapshot()
	addrs := make([]uint64, 0, len(snap))
	for a := range snap {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	d.Int(len(addrs))
	for _, a := range addrs {
		d.U64(a)
		d.U64(snap[a])
	}

	// Result-bearing statistics: these accumulate across the run, so they
	// are part of the state a restore must reproduce.
	digestAcc(d, &m.Lat.Read)
	digestAcc(d, &m.Lat.Write)
	digestAcc(d, &m.Lat.DeadlockRead)
	digestAcc(d, &m.Lat.DeadlockWrite)
	d.I64(m.LocalHits)
	for _, h := range m.HomeCounts {
		d.I64(h)
	}
	for _, name := range m.Counters.Names() {
		d.Str(name)
		d.I64(m.Counters.Get(name))
	}
	if m.ReadSamples != nil {
		d.Int(m.ReadSamples.N())
	}
	if m.WriteSamples != nil {
		d.Int(m.WriteSamples.N())
	}
	for _, b := range m.nicBusy {
		d.I64(b)
	}

	m.Mesh.DigestState(d)
	if sd, ok := m.engine.(StateDigester); ok {
		sd.DigestState(d)
	}
	return d.Sum()
}

// DigestMsg folds a protocol message into d. Engine digests use it for
// their queued and parked requests.
func DigestMsg(d *sim.Digest, msg *Msg) {
	d.Int(int(msg.Type))
	d.U64(msg.Addr)
	d.Int(msg.Requester)
	d.U64(msg.Version)
	d.Bool(msg.RequesterIsRoot)
	d.I64(msg.IssuedAt)
	d.U64(uint64(msg.Attempt))
	d.I64(msg.DeadlockCycles)
	d.Bool(msg.Backoff)
	d.Bool(msg.HomeServe)
}

func digestAcc(d *sim.Digest, a *stats.Accumulator) {
	d.I64(a.N)
	d.U64(uint64(int64(a.Sum)))
	d.U64(uint64(int64(a.MinV)))
	d.U64(uint64(int64(a.MaxV)))
}
