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
// line slots plus one small hash table of the sets in use.
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
	chunkShift = 3
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
// open-addressed table maps each non-empty set to the head of a chain that
// lists the set's lines in way order, and a lookup walks that chain
// comparing line addresses, as a tag store compares tags within the set.
// Slab and table are built by the first insert.
type Cache[V any] struct {
	chunks  [][]line[V]
	free    int32 // first slot of the free list, or noSlot
	heads   table // set index -> slot of the set's lowest-way line
	ways    int
	numSets int
	clock   uint64
	live    int // valid lines, so Len is O(1)
	// scan is ScanAll's list of occupied sets, kept between calls so a
	// repeated scan allocates nothing.
	scan []entry
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
// or too many for an int32 slot number. Neither the slab nor the table is
// allocated until the first insert.
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

func (c *Cache[V]) setIndex(addr uint64) uint32 { return uint32(addr % uint64(c.numSets)) }

// head returns the slot of the lowest-way line of addr's set, or noSlot.
func (c *Cache[V]) head(addr uint64) int32 {
	_, s := c.heads.find(c.setIndex(addr))
	return s
}

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
	for s := c.head(addr); s != noSlot; s = c.at(s).next {
		if ln := c.at(s); ln.addr == addr {
			return ln
		}
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
	ln, hit := c.claim(addr, true)
	if !hit && ln.addr != addr {
		// The victim's slot takes the new line in place: same way, same
		// place in the set's chain.
		evictedAddr, evictedVal, evicted = ln.addr, ln.val, true
		var zero V
		ln.addr, ln.val = addr, zero
	}
	c.clock++
	ln.lru = c.clock
	return &ln.val, evictedAddr, evictedVal, evicted
}

// InsertNoEvict allocates a line for addr only if the set has an invalid
// way (or addr is already present). It reports whether allocation happened.
// Tree construction uses this: a reply must explicitly tear down a victim
// tree rather than silently replace it.
func (c *Cache[V]) InsertNoEvict(addr uint64) (*V, bool) {
	ln, _ := c.claim(addr, false)
	if ln == nil {
		return nil, false
	}
	c.clock++
	ln.lru = c.clock
	return &ln.val, true
}

// claim finds addr's line with one probe of the set table and one walk of
// the set's chain, and reports whether addr was present. If it was not,
// claim links a new line for addr into the lowest free way, after the lines
// of lower ways. With the set full it returns the set's LRU line, still
// holding the victim's address and payload, if evict is set, and nil if not.
func (c *Cache[V]) claim(addr uint64, evict bool) (*line[V], bool) {
	set := c.setIndex(addr)
	i, head := c.heads.find(set)
	prev, next, way := noSlot, head, int32(0)
	var victim *line[V]
	for s := head; s != noSlot; s = c.at(s).next {
		ln := c.at(s)
		if ln.addr == addr {
			return ln, true
		}
		if s == next && ln.way == way {
			prev, next, way = s, ln.next, way+1
		}
		if victim == nil || ln.lru < victim.lru {
			victim = ln
		}
	}
	if int(way) < c.ways {
		s := c.alloc()
		c.live++
		ln := c.at(s)
		*ln = line[V]{addr: addr, way: way, next: next}
		if prev == noSlot {
			c.heads.putAt(i, set, s)
		} else {
			c.at(prev).next = s
		}
		return ln, false
	}
	if evict {
		return victim, false
	}
	return nil, false
}

// Invalidate removes addr from the cache, returning its payload and whether
// it was present.
func (c *Cache[V]) Invalidate(addr uint64) (V, bool) {
	var zero V
	set := c.setIndex(addr)
	i, s := c.heads.find(set)
	prev := noSlot
	for s != noSlot && c.at(s).addr != addr {
		prev, s = s, c.at(s).next
	}
	if s == noSlot {
		return zero, false
	}
	ln := c.at(s)
	v := ln.val
	switch {
	case prev != noSlot:
		c.at(prev).next = ln.next
	case ln.next != noSlot:
		c.heads.putAt(i, set, ln.next)
	default:
		c.heads.delAt(i)
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
	for s := c.head(addr); s != noSlot; s = c.at(s).next {
		n++
	}
	return n < c.ways
}

// LRUVictim returns the least-recently-used valid line in addr's set for
// which keep returns true, as (lineAddress, payload pointer, ok). A nil keep
// accepts every valid line; keep sees the lines in way order. The line
// addressed by addr itself is excluded.
func (c *Cache[V]) LRUVictim(addr uint64, keep func(lineAddr uint64, v *V) bool) (uint64, *V, bool) {
	var best *line[V]
	for s := c.head(addr); s != noSlot; s = c.at(s).next {
		ln := c.at(s)
		if ln.addr == addr || keep != nil && !keep(ln.addr, &ln.val) {
			continue
		}
		if best == nil || ln.lru < best.lru {
			best = ln
		}
	}
	if best == nil {
		return 0, nil, false
	}
	return best.addr, &best.val, true
}

// ScanSet calls fn for every valid line in addr's set, in way order, until
// fn returns false. fn must not insert or invalidate lines.
func (c *Cache[V]) ScanSet(addr uint64, fn func(lineAddr uint64, v *V) bool) {
	c.scanChain(c.head(addr), fn)
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
// or invalidate lines. The sorted list of occupied sets is kept for the
// next call, so only a cache's first scan, or one over more sets than any
// before it, allocates.
func (c *Cache[V]) ScanAll(fn func(lineAddr uint64, v *V) bool) {
	sets := c.scan[:0]
	c.scan = nil // a ScanAll nested in fn sorts into its own list
	for _, e := range c.heads.ents {
		if e.slot != 0 {
			sets = append(sets, e)
		}
	}
	slices.SortFunc(sets, func(a, b entry) int { return cmp.Compare(a.key, b.key) })
	for _, e := range sets {
		if !c.scanChain(e.slot-1, fn) {
			break
		}
	}
	c.scan = sets
}

// Len returns the number of valid lines currently held.
func (c *Cache[V]) Len() int { return c.live }
