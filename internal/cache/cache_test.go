package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct{ entries, ways int }{{0, 1}, {4, 0}, {5, 2}, {-4, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("New(%d,%d) did not panic", tc.entries, tc.ways)
				}
			}()
			New[int](tc.entries, tc.ways)
		}()
	}
}

func TestGeometry(t *testing.T) {
	c := New[int](4096, 4)
	if c.Ways() != 4 || c.Sets() != 1024 || c.Entries() != 4096 {
		t.Fatalf("geometry %d/%d/%d", c.Ways(), c.Sets(), c.Entries())
	}
}

func TestInsertLookupRoundTrip(t *testing.T) {
	c := New[string](16, 2)
	v, _, _, ev := c.Insert(100)
	if ev {
		t.Fatal("insert into empty cache evicted")
	}
	*v = "hello"
	got, ok := c.Lookup(100)
	if !ok || *got != "hello" {
		t.Fatalf("Lookup(100) = %v %v", got, ok)
	}
	if _, ok := c.Lookup(101); ok {
		t.Fatal("Lookup of absent address hit")
	}
}

func TestInsertExistingIsHitNotReset(t *testing.T) {
	c := New[int](8, 2)
	v, _, _, _ := c.Insert(5)
	*v = 42
	v2, _, _, ev := c.Insert(5)
	if ev {
		t.Fatal("re-insert evicted")
	}
	if *v2 != 42 {
		t.Fatalf("re-insert zeroed payload: %d", *v2)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache, 1 set: addresses all collide.
	c := New[int](2, 2)
	c.Insert(1)
	c.Insert(2)
	c.Lookup(1) // 1 is now MRU; 2 is LRU
	_, evAddr, _, ev := c.Insert(3)
	if !ev || evAddr != 2 {
		t.Fatalf("evicted %v (ok=%v), want 2", evAddr, ev)
	}
	if _, ok := c.Peek(1); !ok {
		t.Fatal("MRU line 1 was evicted")
	}
	if _, ok := c.Peek(3); !ok {
		t.Fatal("inserted line 3 missing")
	}
}

func TestEvictionReturnsPayload(t *testing.T) {
	c := New[int](1, 1)
	v, _, _, _ := c.Insert(7)
	*v = 99
	_, evAddr, evVal, ev := c.Insert(8)
	if !ev || evAddr != 7 || evVal != 99 {
		t.Fatalf("eviction returned (%d,%d,%v), want (7,99,true)", evAddr, evVal, ev)
	}
}

func TestSetIndexingSeparatesSets(t *testing.T) {
	c := New[int](4, 1) // 4 sets, direct mapped
	c.Insert(0)
	c.Insert(1)
	c.Insert(2)
	c.Insert(3)
	for a := uint64(0); a < 4; a++ {
		if _, ok := c.Peek(a); !ok {
			t.Fatalf("address %d missing; sets not independent", a)
		}
	}
	// 4 aliases with the same index evict each other.
	_, evAddr, _, ev := c.Insert(4)
	if !ev || evAddr != 0 {
		t.Fatalf("alias insert evicted %d (ok=%v), want 0", evAddr, ev)
	}
}

func TestInsertNoEvict(t *testing.T) {
	c := New[int](2, 2)
	if _, ok := c.InsertNoEvict(1); !ok {
		t.Fatal("InsertNoEvict failed with free ways")
	}
	if _, ok := c.InsertNoEvict(2); !ok {
		t.Fatal("InsertNoEvict failed with one free way")
	}
	if _, ok := c.InsertNoEvict(3); ok {
		t.Fatal("InsertNoEvict succeeded on a full set")
	}
	// Existing line is fine even when full.
	v, ok := c.InsertNoEvict(1)
	if !ok || v == nil {
		t.Fatal("InsertNoEvict of resident address failed")
	}
	if _, ok := c.Peek(2); !ok {
		t.Fatal("resident line lost")
	}
}

func TestInvalidate(t *testing.T) {
	c := New[int](4, 2)
	v, _, _, _ := c.Insert(9)
	*v = 7
	val, ok := c.Invalidate(9)
	if !ok || val != 7 {
		t.Fatalf("Invalidate returned (%d,%v)", val, ok)
	}
	if _, ok := c.Peek(9); ok {
		t.Fatal("line still present after Invalidate")
	}
	if _, ok := c.Invalidate(9); ok {
		t.Fatal("double Invalidate reported presence")
	}
}

func TestHasFreeWay(t *testing.T) {
	c := New[int](2, 2)
	if !c.HasFreeWay(0) {
		t.Fatal("empty set reported full")
	}
	c.Insert(0)
	c.Insert(2)
	if c.HasFreeWay(4) {
		t.Fatal("full set reported free")
	}
	c.Invalidate(0)
	if !c.HasFreeWay(4) {
		t.Fatal("set with invalidated way reported full")
	}
}

func TestLRUVictim(t *testing.T) {
	c := New[int](4, 4)
	c.Insert(0)
	c.Insert(4)
	c.Insert(8)
	c.Lookup(0) // 4 is now LRU
	addr, v, ok := c.LRUVictim(12, nil)
	if !ok || addr != 4 || v == nil {
		t.Fatalf("LRUVictim = (%d,%v,%v), want 4", addr, v, ok)
	}
	// Predicate can exclude the LRU line.
	addr, _, ok = c.LRUVictim(12, func(a uint64, _ *int) bool { return a != 4 })
	if !ok || addr != 8 {
		t.Fatalf("filtered LRUVictim = (%d,%v), want 8", addr, ok)
	}
	// Excludes the probe address itself.
	addr, _, ok = c.LRUVictim(4, nil)
	if !ok || addr == 4 {
		t.Fatalf("LRUVictim returned probe address")
	}
	// No candidates.
	c2 := New[int](4, 4)
	if _, _, ok := c2.LRUVictim(0, nil); ok {
		t.Fatal("LRUVictim found a line in an empty cache")
	}
}

func TestScanSetAndScanAll(t *testing.T) {
	c := New[int](8, 2) // 4 sets
	c.Insert(1)
	c.Insert(5) // same set as 1
	c.Insert(2)
	var setAddrs []uint64
	c.ScanSet(1, func(a uint64, _ *int) bool {
		setAddrs = append(setAddrs, a)
		return true
	})
	if len(setAddrs) != 2 {
		t.Fatalf("ScanSet saw %v, want 2 lines", setAddrs)
	}
	n := 0
	c.ScanAll(func(uint64, *int) bool { n++; return true })
	if n != 3 {
		t.Fatalf("ScanAll saw %d lines, want 3", n)
	}
	// Early termination.
	n = 0
	c.ScanAll(func(uint64, *int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("ScanAll ignored early stop, saw %d", n)
	}
}

func TestLenAndMissRate(t *testing.T) {
	c := New[int](8, 2)
	if c.Len() != 0 || c.MissRate() != 0 {
		t.Fatal("fresh cache not empty")
	}
	c.Insert(1)
	c.Insert(2)
	if c.Len() != 2 {
		t.Fatalf("Len=%d, want 2", c.Len())
	}
	c.Lookup(1)
	c.Lookup(99)
	if c.MissRate() != 0.5 {
		t.Fatalf("MissRate=%v, want 0.5", c.MissRate())
	}
}

// Property: the reconstructed line address of every resident line equals the
// address it was inserted under, across random address streams and cache
// shapes.
func TestAddressReconstructionProperty(t *testing.T) {
	shapes := []struct{ entries, ways int }{{16, 1}, {16, 2}, {64, 4}, {32, 8}}
	err := quick.Check(func(addrs []uint16, shapeIdx uint8) bool {
		sh := shapes[int(shapeIdx)%len(shapes)]
		c := New[uint64](sh.entries, sh.ways)
		for _, a16 := range addrs {
			a := uint64(a16)
			v, _, _, _ := c.Insert(a)
			*v = a
		}
		good := true
		c.ScanAll(func(lineAddr uint64, v *uint64) bool {
			if lineAddr != *v {
				good = false
				return false
			}
			return true
		})
		return good
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity and Insert always leaves the
// inserted address resident.
func TestOccupancyProperty(t *testing.T) {
	err := quick.Check(func(addrs []uint16) bool {
		c := New[int](32, 4)
		for _, a16 := range addrs {
			a := uint64(a16)
			c.Insert(a)
			if _, ok := c.Peek(a); !ok {
				return false
			}
			if c.Len() > c.Entries() {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: InsertNoEvict never removes any resident line.
func TestInsertNoEvictNeverEvictsProperty(t *testing.T) {
	err := quick.Check(func(addrs []uint16) bool {
		c := New[int](16, 2)
		resident := map[uint64]bool{}
		for _, a16 := range addrs {
			a := uint64(a16)
			if _, ok := c.InsertNoEvict(a); ok {
				resident[a] = true
			}
			for r := range resident {
				if _, ok := c.Peek(r); !ok {
					return false
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 100})
	if err != nil {
		t.Fatal(err)
	}
}

// refCache is the reference model: the original eager implementation, one
// slice of ways per set, every set allocated up front. The randomized
// differential test below drives it in lockstep with Cache.
type refCache[V any] struct {
	sets    [][]line[V]
	numSets int
	clock   uint64
	Hits    int64
	Misses  int64
}

func newRef[V any](entries, ways int) *refCache[V] {
	r := &refCache[V]{numSets: entries / ways, sets: make([][]line[V], entries/ways)}
	for i := range r.sets {
		r.sets[i] = make([]line[V], ways)
	}
	return r
}

func (r *refCache[V]) setIndex(addr uint64) int { return int(addr % uint64(r.numSets)) }
func (r *refCache[V]) tag(addr uint64) uint64   { return addr / uint64(r.numSets) }
func (r *refCache[V]) addrOf(setIdx int, tag uint64) uint64 {
	return tag*uint64(r.numSets) + uint64(setIdx)
}

func (r *refCache[V]) find(addr uint64) *line[V] {
	s := r.sets[r.setIndex(addr)]
	for i := range s {
		if s[i].valid && s[i].tag == r.tag(addr) {
			return &s[i]
		}
	}
	return nil
}

func (r *refCache[V]) Lookup(addr uint64) (*V, bool) {
	if ln := r.find(addr); ln != nil {
		r.clock++
		ln.lru = r.clock
		r.Hits++
		return &ln.val, true
	}
	r.Misses++
	return nil, false
}

func (r *refCache[V]) Peek(addr uint64) (*V, bool) {
	if ln := r.find(addr); ln != nil {
		return &ln.val, true
	}
	return nil, false
}

func (r *refCache[V]) Insert(addr uint64) (v *V, evictedAddr uint64, evictedVal V, evicted bool) {
	if ln := r.find(addr); ln != nil {
		r.clock++
		ln.lru = r.clock
		return &ln.val, 0, evictedVal, false
	}
	s := r.sets[r.setIndex(addr)]
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
		evictedAddr = r.addrOf(r.setIndex(addr), s[victim].tag)
		evictedVal = s[victim].val
	}
	r.clock++
	s[victim] = line[V]{tag: r.tag(addr), valid: true, lru: r.clock}
	return &s[victim].val, evictedAddr, evictedVal, evicted
}

func (r *refCache[V]) InsertNoEvict(addr uint64) (*V, bool) {
	if ln := r.find(addr); ln != nil {
		r.clock++
		ln.lru = r.clock
		return &ln.val, true
	}
	s := r.sets[r.setIndex(addr)]
	for i := range s {
		if !s[i].valid {
			r.clock++
			s[i] = line[V]{tag: r.tag(addr), valid: true, lru: r.clock}
			return &s[i].val, true
		}
	}
	return nil, false
}

func (r *refCache[V]) Invalidate(addr uint64) (V, bool) {
	var zero V
	if ln := r.find(addr); ln != nil {
		v := ln.val
		ln.valid = false
		ln.val = zero
		return v, true
	}
	return zero, false
}

func (r *refCache[V]) HasFreeWay(addr uint64) bool {
	for _, ln := range r.sets[r.setIndex(addr)] {
		if !ln.valid {
			return true
		}
	}
	return false
}

func (r *refCache[V]) LRUVictim(addr uint64, keep func(lineAddr uint64, v *V) bool) (uint64, *V, bool) {
	setIdx := r.setIndex(addr)
	s := r.sets[setIdx]
	best := -1
	for i := range s {
		ln := &s[i]
		if !ln.valid || ln.tag == r.tag(addr) {
			continue
		}
		if keep != nil && !keep(r.addrOf(setIdx, ln.tag), &ln.val) {
			continue
		}
		if best < 0 || ln.lru < s[best].lru {
			best = i
		}
	}
	if best < 0 {
		return 0, nil, false
	}
	return r.addrOf(setIdx, s[best].tag), &s[best].val, true
}

func (r *refCache[V]) ScanSet(addr uint64, fn func(lineAddr uint64, v *V) bool) {
	setIdx := r.setIndex(addr)
	s := r.sets[setIdx]
	for i := range s {
		if s[i].valid && !fn(r.addrOf(setIdx, s[i].tag), &s[i].val) {
			return
		}
	}
}

func (r *refCache[V]) ScanAll(fn func(lineAddr uint64, v *V) bool) {
	for setIdx, s := range r.sets {
		for i := range s {
			if s[i].valid && !fn(r.addrOf(setIdx, s[i].tag), &s[i].val) {
				return
			}
		}
	}
}

func (r *refCache[V]) Len() int {
	n := 0
	r.ScanAll(func(uint64, *V) bool { n++; return true })
	return n
}

// visit is one callback of a scan or LRUVictim predicate: the line address
// and the payload seen there.
type visit struct{ addr, val uint64 }

// TestMatchesReferenceModel drives Cache and refCache with the same seeded
// random operation stream and compares every return value, every payload
// seen through a returned pointer, and the order of every scan and
// predicate callback. Writes through returned pointers (stamped with the
// step number) make a pointer to the wrong line show up as a payload
// mismatch later. At pageSets = 8 the geometries cover one set, a partial
// page, several full pages, and a last page cut short.
func TestMatchesReferenceModel(t *testing.T) {
	geoms := []struct{ entries, ways int }{
		{4, 4},     // one set
		{12, 2},    // 6 sets: less than one page
		{24, 2},    // 12 sets: one full page and a partial one
		{200, 2},   // 100 sets: 12 full pages, last page holds 4 sets
		{130, 1},   // direct mapped, 130 sets: last page holds 2 sets
		{4096, 4},  // 1024 sets: 128 full pages
		{8192, 16}, // wide sets over 64 full pages
	}
	for _, g := range geoms {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.entries, g.ways, seed), func(t *testing.T) {
				diffRun(t, g.entries, g.ways, seed, 4000)
			})
		}
	}
}

func diffRun(t *testing.T, entries, ways int, seed int64, steps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := New[uint64](entries, ways)
	r := newRef[uint64](entries, ways)
	numSets := entries / ways
	// A few hot sets with many aliases exercise eviction; uniform draws
	// over a range a few times the capacity touch pages at random, so
	// both present and missing pages are probed.
	hot := make([]uint64, 3)
	for i := range hot {
		hot[i] = uint64(rng.Intn(numSets))
	}
	addr := func() uint64 {
		if rng.Intn(2) == 0 {
			return hot[rng.Intn(len(hot))] + uint64(numSets)*uint64(rng.Intn(2*ways+1))
		}
		return uint64(rng.Intn(4 * entries))
	}
	keep := func(seen *[]visit) func(uint64, *uint64) bool {
		return func(a uint64, v *uint64) bool {
			*seen = append(*seen, visit{a, *v})
			return (a+*v)%3 != 0
		}
	}
	scan := func(seen *[]visit, stop int) func(uint64, *uint64) bool {
		return func(a uint64, v *uint64) bool {
			*seen = append(*seen, visit{a, *v})
			return len(*seen) != stop
		}
	}
	ptrs := func(step int, op string, gv, wv *uint64) {
		if (gv == nil) != (wv == nil) {
			t.Fatalf("step %d %s: pointer nil=%v, reference nil=%v", step, op, gv == nil, wv == nil)
		}
		if gv == nil {
			return
		}
		if *gv != *wv {
			t.Fatalf("step %d %s: payload %d, reference %d", step, op, *gv, *wv)
		}
		*gv, *wv = uint64(step), uint64(step)
	}
	for step := 1; step <= steps; step++ {
		a := addr()
		switch op := rng.Intn(10); op {
		case 0:
			gv, ga, gval, gev := c.Insert(a)
			wv, wa, wval, wev := r.Insert(a)
			if ga != wa || gval != wval || gev != wev {
				t.Fatalf("step %d Insert(%d): evicted (%d,%d,%v), reference (%d,%d,%v)", step, a, ga, gval, gev, wa, wval, wev)
			}
			ptrs(step, "Insert", gv, wv)
		case 1:
			gv, gok := c.InsertNoEvict(a)
			wv, wok := r.InsertNoEvict(a)
			if gok != wok {
				t.Fatalf("step %d InsertNoEvict(%d): %v, reference %v", step, a, gok, wok)
			}
			ptrs(step, "InsertNoEvict", gv, wv)
		case 2:
			gv, gok := c.Lookup(a)
			wv, wok := r.Lookup(a)
			if gok != wok {
				t.Fatalf("step %d Lookup(%d): %v, reference %v", step, a, gok, wok)
			}
			ptrs(step, "Lookup", gv, wv)
		case 3:
			gv, gok := c.Peek(a)
			wv, wok := r.Peek(a)
			if gok != wok {
				t.Fatalf("step %d Peek(%d): %v, reference %v", step, a, gok, wok)
			}
			ptrs(step, "Peek", gv, wv)
		case 4:
			gval, gok := c.Invalidate(a)
			wval, wok := r.Invalidate(a)
			if gval != wval || gok != wok {
				t.Fatalf("step %d Invalidate(%d): (%d,%v), reference (%d,%v)", step, a, gval, gok, wval, wok)
			}
		case 5:
			var gseen, wseen []visit
			gk, wk := keep(&gseen), keep(&wseen)
			if rng.Intn(4) == 0 {
				gk, wk = nil, nil
			}
			ga, gv, gok := c.LRUVictim(a, gk)
			wa, wv, wok := r.LRUVictim(a, wk)
			if ga != wa || gok != wok || !slices.Equal(gseen, wseen) {
				t.Fatalf("step %d LRUVictim(%d): (%d,%v) visits %v, reference (%d,%v) visits %v", step, a, ga, gok, gseen, wa, wok, wseen)
			}
			ptrs(step, "LRUVictim", gv, wv)
		case 6:
			if g, w := c.HasFreeWay(a), r.HasFreeWay(a); g != w {
				t.Fatalf("step %d HasFreeWay(%d): %v, reference %v", step, a, g, w)
			}
		case 7:
			var gseen, wseen []visit
			stop := rng.Intn(ways + 1)
			c.ScanSet(a, scan(&gseen, stop))
			r.ScanSet(a, scan(&wseen, stop))
			if !slices.Equal(gseen, wseen) {
				t.Fatalf("step %d ScanSet(%d): %v, reference %v", step, a, gseen, wseen)
			}
		case 8:
			var gseen, wseen []visit
			stop := -1
			if rng.Intn(2) == 0 {
				stop = rng.Intn(entries) + 1
			}
			c.ScanAll(scan(&gseen, stop))
			r.ScanAll(scan(&wseen, stop))
			if !slices.Equal(gseen, wseen) {
				t.Fatalf("step %d ScanAll: %d visits, reference %d (first difference in %v vs %v)", step, len(gseen), len(wseen), gseen, wseen)
			}
		case 9:
			if g, w := c.Len(), r.Len(); g != w {
				t.Fatalf("step %d Len: %d, reference %d", step, g, w)
			}
		}
		if c.Hits != r.Hits || c.Misses != r.Misses {
			t.Fatalf("step %d: hits/misses %d/%d, reference %d/%d", step, c.Hits, c.Misses, r.Hits, r.Misses)
		}
	}
	var gseen, wseen []visit
	c.ScanAll(scan(&gseen, -1))
	r.ScanAll(scan(&wseen, -1))
	if !slices.Equal(gseen, wseen) || c.Len() != r.Len() {
		t.Fatalf("final state: %d lines (Len %d), reference %d lines (Len %d)", len(gseen), c.Len(), len(wseen), r.Len())
	}
}

// TestPayloadPointerStable: a payload pointer from Insert keeps its address
// and value while every other set, and so every other page, fills.
func TestPayloadPointerStable(t *testing.T) {
	const ways = 2
	c := New[uint64](ways*10*pageSets, ways) // 10 pages
	p, _, _, _ := c.Insert(0)
	*p = 12345
	for a := uint64(1); a < uint64(c.Sets()); a++ {
		v, _, _, ev := c.Insert(a)
		if ev {
			t.Fatalf("insert of %d evicted", a)
		}
		*v = a
	}
	if c.Len() != c.Sets() {
		t.Fatalf("Len=%d, want %d", c.Len(), c.Sets())
	}
	got, ok := c.Peek(0)
	if !ok || got != p || *got != 12345 {
		t.Fatalf("Peek(0) = (%p,%v), want %p holding 12345", got, ok, p)
	}
}

// TestUntouchedPagesStayUnallocated: probes that miss never allocate, not
// even the page table, and an insert allocates exactly the page it lands on.
func TestUntouchedPagesStayUnallocated(t *testing.T) {
	c := New[int](8*4*pageSets, 8) // 4 pages
	for a := uint64(0); a < 1000; a++ {
		c.Lookup(a)
		c.Peek(a)
		c.HasFreeWay(a)
		c.LRUVictim(a, nil)
		c.ScanSet(a, func(uint64, *int) bool { return true })
		c.Invalidate(a)
	}
	c.ScanAll(func(uint64, *int) bool { t.Fatal("ScanAll visited a line of an empty cache"); return false })
	allocated := func() (n int) {
		for _, p := range c.pages {
			if p != nil {
				n++
			}
		}
		return n
	}
	if c.pages != nil {
		t.Fatalf("probes alone built a page table of %d pages", len(c.pages))
	}
	c.InsertNoEvict(2*pageSets + 5)
	if n := allocated(); n != 1 || c.pages[2] == nil {
		t.Fatalf("InsertNoEvict allocated %d pages (page 2 present: %v)", n, c.pages[2] != nil)
	}
}
