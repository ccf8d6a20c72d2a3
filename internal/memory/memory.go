// Package memory models the off-chip main memory: a flat, fixed-latency
// (nominally 200-cycle) backing store, exactly as the paper's Table 2
// configures it.
//
// For verification, the simulator does not move real data. Every cache line
// carries a version number: a line's version is incremented by each
// system-wide write, and the value a read returns is the version it observed.
// Main memory stores the last version written back per line, so the paper's
// runtime coherence check ("the value being written to the data cache
// [matches] the value held in main memory", Section 2.4) becomes a version
// comparison.
package memory

// Memory is the off-chip backing store. A memory belongs to one machine and
// is called only from the goroutine running that machine's simulation, so
// it takes no lock.
type Memory struct {
	latency  int64
	versions map[uint64]uint64

	// Reads and Writebacks count accesses for reporting.
	Reads      int64
	Writebacks int64
}

// New returns a memory with the given access latency in cycles.
func New(latency int64) *Memory {
	return &Memory{latency: latency, versions: make(map[uint64]uint64)}
}

// Latency returns the access latency in cycles. Callers model the delay by
// scheduling their continuation this many cycles in the future.
func (m *Memory) Latency() int64 { return m.latency }

// Read returns the version currently stored for line addr. Lines never
// written back read as version zero, the initial state of all of memory.
func (m *Memory) Read(addr uint64) uint64 {
	m.Reads++
	return m.versions[addr]
}

// Peek is Read without access accounting, for verifiers.
func (m *Memory) Peek(addr uint64) uint64 {
	return m.versions[addr]
}

// Writeback records that version v of line addr has been written back.
// Writebacks carry monotonically increasing versions per line; an
// out-of-order (stale) writeback is ignored rather than allowed to roll the
// line backward, mirroring how real memory controllers squash a stale
// writeback that races a later owner's.
func (m *Memory) Writeback(addr uint64, v uint64) {
	m.Writebacks++
	if v > m.versions[addr] {
		m.versions[addr] = v
	}
}

// Lines returns how many distinct lines have ever been written back.
func (m *Memory) Lines() int {
	return len(m.versions)
}

// Snapshot returns a copy of the per-line version map, for end-state
// verification.
func (m *Memory) Snapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64, len(m.versions))
	for a, v := range m.versions {
		out[a] = v
	}
	return out
}
