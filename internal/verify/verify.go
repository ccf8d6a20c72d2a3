// Package verify implements the paper's runtime verification (Section 2.4):
// every simulation run is continuously checked for coherence and the
// conditions that imply sequential consistency under the protocols'
// one-outstanding-request rule.
//
// The simulator moves version numbers instead of data: each system-wide
// write to a line produces the next version, so "the value read" is the
// version the reply carried. The online Checker runs four checks, each
// reported under its Invariant ID (invariant.go):
//
//  1. Read sampling (sc-order; the paper's "check the value being written
//     to the data cache against the value held in main memory"): at the
//     moment a read reply is generated from a data source, the sampled
//     version must equal main memory's current version for the line.
//  2. Sole copy at commit (sole-copy-at-commit): when a write commits, no
//     node other than the writer may hold a valid cached copy. This is the
//     MSI invariant whose violation produces stale (orphaned) copies.
//  3. Per-node observation monotonicity (sc-order; the paper's program-order
//     / total-order embedding): once a node has observed version v of a
//     line, it must never observe an older version of that line.
//  4. Local hits (no-stale-copy): a read served by the node's own copy
//     must return the committed-current version.
package verify

import "slices"

// Checker accumulates protocol-visible events and records violations.
// Engines are required to report every data-cache line validation and
// invalidation so the copy registry is exact.
//
// Per-line state lives in one record per line the run has touched, found
// by a single index lookup per call: the committed version, the nodes
// holding a valid copy and the last version each node observed. A line is
// held and observed by few nodes at a time, so both sets are small slices
// searched linearly. Records are stored in fixed-size chunks that never
// move, so growing the store never copies it.
//
// A checker belongs to one machine and is called only from the goroutine
// running that machine's simulation, so it takes no lock.
type Checker struct {
	index     map[uint64]uint32 // line address -> record number
	chunks    [][]lineRec       // record i is chunks[i/chunkRecs][i%chunkRecs]
	order     []AccessRecord    // total order of committed accesses
	keepOrder bool

	violations []Violation

	// Reads and Writes count committed accesses.
	Reads, Writes int64
}

// chunkRecs is the number of line records per storage chunk.
const chunkRecs = 256

// lineRec is one line's verifier state.
type lineRec struct {
	version uint64     // committed version; 0 until the first write
	holders []int32    // nodes holding a valid copy, ascending
	seen    []observed // last version observed per node, in first-seen order
}

// observed is the last version of a line one node observed.
type observed struct {
	node int32
	v    uint64
}

// rec returns addr's record, or nil when the line has none and create is
// false.
func (c *Checker) rec(addr uint64, create bool) *lineRec {
	i, ok := c.index[addr]
	if !ok {
		if !create {
			return nil
		}
		n := len(c.index)
		if n%chunkRecs == 0 {
			c.chunks = append(c.chunks, make([]lineRec, chunkRecs))
		}
		i = uint32(n)
		c.index[addr] = i
	}
	return &c.chunks[i/chunkRecs][i%chunkRecs]
}

// observe records that node observed version v of the line and returns
// the version it last observed before, if any.
func (r *lineRec) observe(node int, v uint64) (last uint64, ok bool) {
	for i := range r.seen {
		if o := &r.seen[i]; o.node == int32(node) {
			last, o.v = o.v, v
			return last, true
		}
	}
	r.seen = append(r.seen, observed{node: int32(node), v: v})
	return 0, false
}

// AccessRecord is one entry of the runtime total order.
type AccessRecord struct {
	Node    int
	Addr    uint64
	Write   bool
	Version uint64
	At      int64
}

// New returns an empty checker. If keepOrder is true the full total order
// is retained (tests inspect it); experiment runs pass false to bound
// memory.
func New(keepOrder bool) *Checker {
	return &Checker{
		index:     make(map[uint64]uint32),
		keepOrder: keepOrder,
	}
}

func (c *Checker) fail(inv Invariant, format string, args ...interface{}) {
	if len(c.violations) < 100 {
		c.violations = append(c.violations, Violationf(inv, format, args...))
	}
}

// Violations returns all recorded violations.
func (c *Checker) Violations() []Violation {
	return c.violations
}

// Order returns the retained total order (empty unless keepOrder).
func (c *Checker) Order() []AccessRecord {
	return c.order
}

// CurrentVersion returns the last committed version of addr.
func (c *Checker) CurrentVersion(addr uint64) uint64 {
	if r := c.rec(addr, false); r != nil {
		return r.version
	}
	return 0
}

// VersionSnapshot returns a copy of the committed-version map: every line
// ever written, with its final committed version. Because each write access
// commits exactly once, the snapshot is a pure function of the access trace
// and must be identical across coherence engines run over the same trace.
func (c *Checker) VersionSnapshot() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for a, i := range c.index {
		if v := c.chunks[i/chunkRecs][i%chunkRecs].version; v > 0 {
			out[a] = v
		}
	}
	return out
}

// RegisterCopy records that node now holds a valid cached copy of addr.
func (c *Checker) RegisterCopy(addr uint64, node int) {
	r := c.rec(addr, true)
	at := len(r.holders)
	for i, h := range r.holders {
		if h == int32(node) {
			return
		}
		if h > int32(node) {
			at = i
			break
		}
	}
	r.holders = slices.Insert(r.holders, at, int32(node))
}

// UnregisterCopy records that node's cached copy of addr is gone.
func (c *Checker) UnregisterCopy(addr uint64, node int) {
	r := c.rec(addr, false)
	if r == nil {
		return
	}
	for i, h := range r.holders {
		if h == int32(node) {
			r.holders = slices.Delete(r.holders, i, i+1)
			return
		}
	}
}

// Copies returns the nodes currently holding valid copies of addr, in
// ascending order.
func (c *Checker) Copies(addr uint64) []int {
	var out []int
	if r := c.rec(addr, false); r != nil {
		for _, h := range r.holders {
			out = append(out, int(h))
		}
	}
	return out
}

// CommitWrite serializes a write by node to addr at cycle now, checks the
// single-writer invariant, and returns the new version the writer's line
// must carry. Other holders are reported in ascending node order.
func (c *Checker) CommitWrite(addr uint64, node int, now int64) uint64 {
	r := c.rec(addr, true)
	for _, other := range r.holders {
		if int(other) != node {
			c.fail(SoleCopyAtCommit, "write commit to %#x by node %d while node %d holds a valid copy (cycle %d)", addr, node, other, now)
		}
	}
	r.version++
	v := r.version
	c.Writes++
	r.observe(node, v)
	if c.keepOrder {
		c.order = append(c.order, AccessRecord{Node: node, Addr: addr, Write: true, Version: v, At: now})
	}
	return v
}

// SampleRead serializes a read at the moment its reply is generated from a
// data source — the paper defines a read access "as occurring when a value
// is read from main memory or from an existing tree". It checks the sampled
// version against main memory's version at that moment (the paper's runtime
// coherence check) and appends the read to the total order. sampled is the
// version the reply will carry, memVersion main memory's current value.
func (c *Checker) SampleRead(addr uint64, sampled, memVersion uint64, node int, now int64) {
	if sampled != memVersion {
		c.fail(SCOrder, "read of %#x for node %d sampled version %d but memory holds %d (cycle %d)", addr, node, sampled, memVersion, now)
	}
	c.Reads++
	if c.keepOrder {
		c.order = append(c.order, AccessRecord{Node: node, Addr: addr, Write: false, Version: sampled, At: now})
	}
}

// ObserveRead records that node's read of addr returned version v, either
// at reply delivery or on a local cache hit, and checks per-node
// monotonicity: a node must never observe an older version after a newer
// one. When local is true the read was served by the node's own valid
// cached copy, which under the MSI invariant must hold the globally current
// version, so staleness is checked strictly.
func (c *Checker) ObserveRead(addr uint64, v uint64, node int, now int64, local bool) {
	r := c.rec(addr, true)
	if last, ok := r.observe(node, v); ok && v < last {
		c.fail(SCOrder, "node %d observed version %d of %#x after having observed %d (cycle %d)", node, v, addr, last, now)
	}
	if local {
		if cur := r.version; v != cur {
			c.fail(NoStaleCopy, "node %d local copy of %#x holds version %d but committed version is %d (cycle %d)", node, addr, v, cur, now)
		}
		c.Reads++
		if c.keepOrder {
			c.order = append(c.order, AccessRecord{Node: node, Addr: addr, Write: false, Version: v, At: now})
		}
	}
}
