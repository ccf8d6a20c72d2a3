// Package cache implements the generic set-associative, LRU-replacement tag
// store shared by every cache-like structure in the system: the per-node L2
// data caches, the baseline protocol's directory caches, and the in-network
// protocol's virtual tree caches.
//
// Addresses handed to this package are line addresses (the block offset has
// already been stripped). The set index is the low bits of the line address
// and the tag the remaining high bits, exactly as the paper's
// <tag, index, offset> parse of the packet header (Section 2.3).
//
// The tree cache needs operations a plain cache does not: allocate only into
// an invalid way (tree construction must never silently evict another tree),
// find the LRU line of a set subject to a predicate (teardowns must skip
// lines that are already being torn down), and scan a set. Those primitives
// live here so all three cache users share one replacement implementation.
package cache

// pageSets is the number of consecutive sets one storage page covers. A page
// is the unit of lazy allocation. Traces touch few lines spread over many
// sets: with 64-set pages about one allocated L2 line slot in a thousand
// held a live line at the end of a fig9 job, and zeroing those pages cost a
// tenth of the run's CPU. Eight sets keep an L2 page at 2.5 KB while still
// amortising one allocation over several neighbouring sets. It is a
// constant, not a knob, because it changes no observable behaviour, only
// memory footprint.
const pageSets = 8

// Cache is a set-associative cache mapping line addresses to a payload of
// type V. It is a pure tag store: timing is modeled by its callers.
//
// Storage is a table of fixed-size pages, each a flat run of lines for
// pageSets consecutive sets (set-major, way-minor). The table itself is
// built by the first insert, and a page the first time an insert touches
// one of its sets; a set on a missing page, or in a cache with no table, is
// empty. Pages are never moved or regrown, so payload pointers stay valid
// until their line is evicted or invalidated.
type Cache[V any] struct {
	pages   [][]line[V]
	ways    int
	numSets int
	clock   uint64
	live    int // valid lines, so Len is O(1)

	// Hits and Misses count Lookup results for miss-rate reporting.
	Hits   int64
	Misses int64
}

type line[V any] struct {
	tag   uint64
	valid bool
	lru   uint64
	val   V
}

// New returns a cache with the given total number of entries and
// associativity. It panics if entries is not a positive multiple of ways.
// Neither the page table nor any line is allocated until the first insert.
func New[V any](entries, ways int) *Cache[V] {
	if entries <= 0 || ways <= 0 || entries%ways != 0 {
		panic("cache: entries must be a positive multiple of ways")
	}
	return &Cache[V]{ways: ways, numSets: entries / ways}
}

// Ways returns the associativity.
func (c *Cache[V]) Ways() int { return c.ways }

// Sets returns the number of sets.
func (c *Cache[V]) Sets() int { return c.numSets }

// Entries returns the total capacity in lines.
func (c *Cache[V]) Entries() int { return c.numSets * c.ways }

func (c *Cache[V]) setIndex(addr uint64) int { return int(addr % uint64(c.numSets)) }
func (c *Cache[V]) tag(addr uint64) uint64   { return addr / uint64(c.numSets) }

// addrOf reconstructs the line address stored in a given set/tag pair.
func (c *Cache[V]) addrOf(setIdx int, tag uint64) uint64 {
	return tag*uint64(c.numSets) + uint64(setIdx)
}

// set returns the ways of set setIdx, or nil if its page is not allocated
// (every way invalid). A cache with no page table yet has len(pages) == 0.
func (c *Cache[V]) set(setIdx int) []line[V] {
	pi := uint(setIdx) / pageSets
	if pi >= uint(len(c.pages)) {
		return nil
	}
	p := c.pages[pi]
	if p == nil {
		return nil
	}
	off := uint(setIdx) % pageSets * uint(c.ways)
	return p[off : off+uint(c.ways)]
}

// fillSet is set for the insert paths: it allocates the page table and the
// set's page first if they are missing. The last page is cut to the sets
// that exist.
func (c *Cache[V]) fillSet(setIdx int) []line[V] {
	if c.pages == nil {
		c.pages = make([][]line[V], (c.numSets+pageSets-1)/pageSets)
	}
	pi := uint(setIdx) / pageSets
	if c.pages[pi] == nil {
		sets := min(pageSets, c.numSets-int(pi)*pageSets)
		c.pages[pi] = make([]line[V], sets*c.ways)
	}
	return c.set(setIdx)
}

func (c *Cache[V]) find(addr uint64) *line[V] {
	s := c.set(c.setIndex(addr))
	tag := c.tag(addr)
	for i := range s {
		if s[i].valid && s[i].tag == tag {
			return &s[i]
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
		c.Hits++
		return &ln.val, true
	}
	c.Misses++
	return nil, false
}

// Peek is Lookup without LRU update or hit/miss accounting, for inspection
// by verifiers and tests.
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
	setIdx := c.setIndex(addr)
	s := c.fillSet(setIdx)
	victim := -1
	for i := range s {
		if !s[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(s); i++ {
			if s[i].lru < s[victim].lru {
				victim = i
			}
		}
		evicted = true
		evictedAddr = c.addrOf(setIdx, s[victim].tag)
		evictedVal = s[victim].val
	} else {
		c.live++
	}
	c.clock++
	var zero V
	s[victim] = line[V]{tag: c.tag(addr), valid: true, lru: c.clock, val: zero}
	return &s[victim].val, evictedAddr, evictedVal, evicted
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
	s := c.fillSet(c.setIndex(addr))
	for i := range s {
		if !s[i].valid {
			c.clock++
			c.live++
			var zero V
			s[i] = line[V]{tag: c.tag(addr), valid: true, lru: c.clock, val: zero}
			return &s[i].val, true
		}
	}
	return nil, false
}

// Invalidate removes addr from the cache, returning its payload and whether
// it was present.
func (c *Cache[V]) Invalidate(addr uint64) (V, bool) {
	var zero V
	if ln := c.find(addr); ln != nil {
		v := ln.val
		ln.valid = false
		ln.val = zero
		c.live--
		return v, true
	}
	return zero, false
}

// HasFreeWay reports whether the set addr maps to has at least one invalid
// way.
func (c *Cache[V]) HasFreeWay(addr uint64) bool {
	s := c.set(c.setIndex(addr))
	if s == nil {
		return true
	}
	for i := range s {
		if !s[i].valid {
			return true
		}
	}
	return false
}

// LRUVictim returns the least-recently-used valid line in addr's set for
// which keep returns true, as (lineAddress, payload pointer, ok). A nil keep
// accepts every valid line. The line addressed by addr itself is excluded.
func (c *Cache[V]) LRUVictim(addr uint64, keep func(lineAddr uint64, v *V) bool) (uint64, *V, bool) {
	setIdx := c.setIndex(addr)
	s := c.set(setIdx)
	tag := c.tag(addr)
	best := -1
	for i := range s {
		ln := &s[i]
		if !ln.valid || ln.tag == tag {
			continue
		}
		if keep != nil && !keep(c.addrOf(setIdx, ln.tag), &ln.val) {
			continue
		}
		if best < 0 || ln.lru < s[best].lru {
			best = i
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return c.addrOf(setIdx, s[best].tag), &s[best].val, true
}

// ScanSet calls fn for every valid line in addr's set until fn returns
// false.
func (c *Cache[V]) ScanSet(addr uint64, fn func(lineAddr uint64, v *V) bool) {
	setIdx := c.setIndex(addr)
	s := c.set(setIdx)
	for i := range s {
		if !s[i].valid {
			continue
		}
		if !fn(c.addrOf(setIdx, s[i].tag), &s[i].val) {
			return
		}
	}
}

// ScanAll calls fn for every valid line in the cache, in set order and way
// order within a set, until fn returns false. It is used by structural
// invariant checks at quiescence and by state digests. Unallocated pages
// hold no valid lines and are skipped.
func (c *Cache[V]) ScanAll(fn func(lineAddr uint64, v *V) bool) {
	for pi, p := range c.pages {
		for i := range p {
			if !p[i].valid {
				continue
			}
			setIdx := pi*pageSets + i/c.ways
			if !fn(c.addrOf(setIdx, p[i].tag), &p[i].val) {
				return
			}
		}
	}
}

// Len returns the number of valid lines currently held.
func (c *Cache[V]) Len() int { return c.live }

// MissRate returns Misses/(Hits+Misses), or 0 before any lookup.
func (c *Cache[V]) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}
