// Package cache implements the generic set-associative, LRU-replacement tag
// store shared by every cache-like structure in the system: the per-node L2
// data caches, the baseline protocol's directory caches, and the in-network
// protocol's virtual tree caches.
//
// Addresses handed to this package are line addresses (the block offset has
// already been stripped). The set index is the low bits of the line address
// and the tag the remaining high bits, exactly as the paper's
// <tag, index, offset> parse of the packet header (Section 2.3). A stored
// line keeps its whole line address, which is tag and index together.
//
// Memory follows the most lines held at once, not the configured capacity:
// Table 2's 65,536-line L2 holding a few hundred lines costs a few hundred
// line slots plus two small hash tables.
//
// The tree cache needs operations a plain cache does not: allocate only into
// an invalid way (tree construction must never silently evict another tree),
// find the LRU line of a set subject to a predicate (teardowns must skip
// lines that are already being torn down), and scan a set. Those primitives
// live here so all three cache users share one replacement implementation.
package cache

import (
	"cmp"
	"math"
	"slices"
)

// chunkLines is the number of line slots in one slab chunk, the unit in
// which line storage grows. Chunks never move, so a payload pointer stays
// valid until its line is evicted or invalidated. It is a constant, not a
// knob, because it changes no observable behaviour, only memory footprint.
const (
	chunkShift = 5
	chunkLines = 1 << chunkShift
)

// noSlot ends a set chain and the free list, and is what a table lookup of
// an absent key returns.
const noSlot int32 = -1

// Cache is a set-associative cache mapping line addresses to a payload of
// type V. It is a pure tag store: timing is modeled by its callers.
//
// Storage is proportional to the most lines held at once, not to the sets
// ever touched. Lines sit in a slab of fixed-size chunks; a slot freed by
// Invalidate goes on a free list and is reused by the next allocation. An
// open-addressed table maps each live line's address to its slot, and a
// second one maps each non-empty set to the head of a chain that lists the
// set's lines in way order. Slab and tables are built by the first insert.
type Cache[V any] struct {
	chunks  [][]line[V]
	free    int32 // first slot of the free list, or noSlot
	index   table // line address -> slot
	heads   table // set index -> slot of the set's lowest-way line
	ways    int
	numSets int
	clock   uint64
	live    int // valid lines, so Len is O(1)
}

type line[V any] struct {
	addr uint64
	lru  uint64
	way  int32
	next int32 // next line of the set in way order, or next free slot
	val  V
}

// New returns a cache with the given total number of entries and
// associativity. It panics if entries is not a positive multiple of ways,
// or too many for an int32 slot number. Neither the slab nor either table
// is allocated until the first insert.
func New[V any](entries, ways int) *Cache[V] {
	if entries <= 0 || ways <= 0 || entries%ways != 0 || entries > math.MaxInt32 {
		panic("cache: entries must be a positive multiple of ways, at most 2^31-1")
	}
	return &Cache[V]{ways: ways, numSets: entries / ways, free: noSlot}
}

// Ways returns the associativity.
func (c *Cache[V]) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache[V]) Sets() int { return c.numSets }

// Entries returns the total capacity in lines.
func (c *Cache[V]) Entries() int { return c.numSets * c.ways }

func (c *Cache[V]) setIndex(addr uint64) uint64 { return addr % uint64(c.numSets) }

func (c *Cache[V]) at(s int32) *line[V] { return &c.chunks[s>>chunkShift][s&(chunkLines-1)] }

// alloc returns a free slot, reusing the most recently freed one. With the
// free list empty every slot handed out so far is live, so the next fresh
// slot is number live, and it starts a new chunk when the last one is full.
func (c *Cache[V]) alloc() int32 {
	if s := c.free; s != noSlot {
		c.free = c.at(s).next
		return s
	}
	s := int32(c.live)
	if int(s>>chunkShift) == len(c.chunks) {
		c.chunks = append(c.chunks, make([]line[V], chunkLines))
	}
	return s
}

func (c *Cache[V]) find(addr uint64) *line[V] {
	if s := c.index.get(addr); s != noSlot {
		return c.at(s)
	}
	return nil
}

// Lookup returns a pointer to the payload of addr and updates LRU state on a
// hit. The pointer stays valid until the line is evicted or invalidated.
func (c *Cache[V]) Lookup(addr uint64) (*V, bool) {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.lru = c.clock
		return &ln.val, true
	}
	return nil, false
}

// Peek is Lookup without LRU update, for inspection by verifiers and tests.
func (c *Cache[V]) Peek(addr uint64) (*V, bool) {
	if ln := c.find(addr); ln != nil {
		return &ln.val, true
	}
	return nil, false
}

// Insert allocates a line for addr, evicting the LRU line of the set if the
// set is full. It returns a pointer to the (zeroed) payload, plus the
// evicted line's address and payload if an eviction occurred. If addr is
// already present its payload is returned unchanged (treated as a hit).
func (c *Cache[V]) Insert(addr uint64) (v *V, evictedAddr uint64, evictedVal V, evicted bool) {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.lru = c.clock
		return &ln.val, 0, evictedVal, false
	}
	set := c.setIndex(addr)
	if ln := c.fill(addr, set); ln != nil {
		return &ln.val, 0, evictedVal, false
	}
	// The victim's slot takes the new line in place: same way, same place
	// in the set's chain.
	s := c.lru(set, addr, nil)
	ln := c.at(s)
	evictedAddr, evictedVal = ln.addr, ln.val
	c.index.del(ln.addr)
	c.index.put(addr, s)
	c.clock++
	var zero V
	ln.addr, ln.lru, ln.val = addr, c.clock, zero
	return &ln.val, evictedAddr, evictedVal, true
}

// InsertNoEvict allocates a line for addr only if the set has an invalid
// way (or addr is already present). It reports whether allocation happened.
// Tree construction uses this: a reply must explicitly tear down a victim
// tree rather than silently replace it.
func (c *Cache[V]) InsertNoEvict(addr uint64) (*V, bool) {
	if ln := c.find(addr); ln != nil {
		c.clock++
		ln.lru = c.clock
		return &ln.val, true
	}
	if ln := c.fill(addr, c.setIndex(addr)); ln != nil {
		return &ln.val, true
	}
	return nil, false
}

// fill allocates absent addr into the lowest free way of set, linking it
// into the set's chain after the lines of lower ways, or returns nil if the
// set is full.
func (c *Cache[V]) fill(addr, set uint64) *line[V] {
	prev, next, way := noSlot, c.heads.get(set), int32(0)
	for next != noSlot && c.at(next).way == way {
		prev, next, way = next, c.at(next).next, way+1
	}
	if int(way) == c.ways {
		return nil
	}
	s := c.alloc()
	c.clock++
	c.live++
	ln := c.at(s)
	*ln = line[V]{addr: addr, lru: c.clock, way: way, next: next}
	if prev == noSlot {
		c.heads.put(set, s)
	} else {
		c.at(prev).next = s
	}
	c.index.put(addr, s)
	return ln
}

// Invalidate removes addr from the cache, returning its payload and whether
// it was present.
func (c *Cache[V]) Invalidate(addr uint64) (V, bool) {
	var zero V
	s := c.index.del(addr)
	if s == noSlot {
		return zero, false
	}
	ln := c.at(s)
	v := ln.val
	set := c.setIndex(addr)
	if h := c.heads.get(set); h != s {
		p := c.at(h)
		for p.next != s {
			p = c.at(p.next)
		}
		p.next = ln.next
	} else if ln.next != noSlot {
		c.heads.put(set, ln.next)
	} else {
		c.heads.del(set)
	}
	ln.val = zero
	ln.next = c.free
	c.free = s
	c.live--
	return v, true
}

// HasFreeWay reports whether the set addr maps to has at least one invalid
// way.
func (c *Cache[V]) HasFreeWay(addr uint64) bool {
	n := 0
	for s := c.heads.get(c.setIndex(addr)); s != noSlot; s = c.at(s).next {
		n++
	}
	return n < c.ways
}

// lru returns the slot of the least-recently-used line of set, other than
// the line addressed by skip, for which keep (if not nil) returns true, or
// noSlot if there is none. keep sees the lines in way order.
func (c *Cache[V]) lru(set, skip uint64, keep func(lineAddr uint64, v *V) bool) int32 {
	best := noSlot
	for s := c.heads.get(set); s != noSlot; s = c.at(s).next {
		ln := c.at(s)
		if ln.addr == skip || keep != nil && !keep(ln.addr, &ln.val) {
			continue
		}
		if best == noSlot || ln.lru < c.at(best).lru {
			best = s
		}
	}
	return best
}

// LRUVictim returns the least-recently-used valid line in addr's set for
// which keep returns true, as (lineAddress, payload pointer, ok). A nil keep
// accepts every valid line. The line addressed by addr itself is excluded.
func (c *Cache[V]) LRUVictim(addr uint64, keep func(lineAddr uint64, v *V) bool) (uint64, *V, bool) {
	s := c.lru(c.setIndex(addr), addr, keep)
	if s == noSlot {
		return 0, nil, false
	}
	ln := c.at(s)
	return ln.addr, &ln.val, true
}

// ScanSet calls fn for every valid line in addr's set, in way order, until
// fn returns false. fn must not insert or invalidate lines.
func (c *Cache[V]) ScanSet(addr uint64, fn func(lineAddr uint64, v *V) bool) {
	c.scanChain(c.heads.get(c.setIndex(addr)), fn)
}

// scanChain calls fn along the chain starting at slot s and reports
// whether fn never returned false.
func (c *Cache[V]) scanChain(s int32, fn func(lineAddr uint64, v *V) bool) bool {
	for ; s != noSlot; s = c.at(s).next {
		ln := c.at(s)
		if !fn(ln.addr, &ln.val) {
			return false
		}
	}
	return true
}

// ScanAll calls fn for every valid line in the cache, in set order and way
// order within a set, until fn returns false. It is used by structural
// invariant checks at quiescence and by state digests. fn must not insert
// or invalidate lines.
func (c *Cache[V]) ScanAll(fn func(lineAddr uint64, v *V) bool) {
	sets := make([]entry, 0, c.heads.n)
	for _, e := range c.heads.ents {
		if e.slot != 0 {
			sets = append(sets, e)
		}
	}
	slices.SortFunc(sets, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	for _, e := range sets {
		if !c.scanChain(e.slot-1, fn) {
			return
		}
	}
}

// Len returns the number of valid lines currently held.
func (c *Cache[V]) Len() int { return c.live }
