package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnBadShape(t *testing.T) {
	for _, tc := range []struct{ entries, ways int }{{0, 1}, {4, 0}, {5, 2}, {-4, 2}, {1 << 31, 1}} {
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

// TestFullSetWalksTheChain: in a full 4-way set every way is found by a
// walk of the set's chain, an absent address of the set misses, and
// Invalidate of a mid-chain line unlinks it alone, leaving its way to the
// next fill.
func TestFullSetWalksTheChain(t *testing.T) {
	c := New[int](8, 4) // 2 sets; even addresses share set 0
	for a := 0; a < 4; a++ {
		v, _, _, ev := c.Insert(uint64(2 * a))
		if ev {
			t.Fatalf("fill of way %d evicted", a)
		}
		*v = 100 + a
	}
	for a := 0; a < 4; a++ {
		if v, ok := c.Lookup(uint64(2 * a)); !ok || *v != 100+a {
			t.Fatalf("Lookup(%d) = (%v,%v), want payload %d", 2*a, v, ok, 100+a)
		}
	}
	if _, ok := c.Peek(8); ok {
		t.Fatal("absent address 8 hit in a full set")
	}
	if _, ok := c.InsertNoEvict(8); ok || c.HasFreeWay(8) {
		t.Fatal("full set took address 8 without an eviction")
	}
	if v, ok := c.Invalidate(4); !ok || v != 102 {
		t.Fatalf("Invalidate(4) = (%d,%v), want (102,true)", v, ok)
	}
	if _, ok := c.Peek(4); ok {
		t.Fatal("line 4 still present after Invalidate")
	}
	if v, ok := c.InsertNoEvict(8); !ok {
		t.Fatal("InsertNoEvict(8) failed with way 2 free")
	} else {
		*v = 108
	}
	var got []int
	c.ScanSet(0, func(a uint64, v *int) bool {
		got = append(got, int(a), *v)
		return true
	})
	if want := []int{0, 100, 2, 101, 8, 108, 6, 103}; !slices.Equal(got, want) || c.Len() != 4 {
		t.Fatalf("set 0 holds %v (Len %d), want %v: ways 0, 1, 2, 3", got, c.Len(), want)
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

func TestLen(t *testing.T) {
	c := New[int](8, 2)
	if c.Len() != 0 {
		t.Fatal("fresh cache not empty")
	}
	c.Insert(1)
	c.Insert(2)
	if c.Len() != 2 {
		t.Fatalf("Len=%d, want 2", c.Len())
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
	sets    [][]refLine[V]
	numSets int
	clock   uint64
}

type refLine[V any] struct {
	tag   uint64
	valid bool
	lru   uint64
	val   V
}

func newRef[V any](entries, ways int) *refCache[V] {
	r := &refCache[V]{numSets: entries / ways, sets: make([][]refLine[V], entries/ways)}
	for i := range r.sets {
		r.sets[i] = make([]refLine[V], ways)
	}
	return r
}

func (r *refCache[V]) setIndex(addr uint64) int { return int(addr % uint64(r.numSets)) }
func (r *refCache[V]) tag(addr uint64) uint64   { return addr / uint64(r.numSets) }
func (r *refCache[V]) addrOf(setIdx int, tag uint64) uint64 {
	return tag*uint64(r.numSets) + uint64(setIdx)
}

func (r *refCache[V]) find(addr uint64) *refLine[V] {
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
		return &ln.val, true
	}
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
	s[victim] = refLine[V]{tag: r.tag(addr), valid: true, lru: r.clock}
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
			s[i] = refLine[V]{tag: r.tag(addr), valid: true, lru: r.clock}
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

// refGeoms are the differential test's cache shapes. With 8-slot slab
// chunks they cover one set, a cache smaller than a chunk, and slabs of
// many chunks whose set tables grow through several doublings. The churn
// shape draws mostly inserts and invalidates, the latter mostly of lines
// inserted earlier, so the set table both grows repeatedly and shifts
// entries back on deletion while the free list recycles slots.
var refGeoms = []refGeom{
	{entries: 4, ways: 4},     // one set, fewer lines than a chunk
	{entries: 12, ways: 2},    // 6 sets
	{entries: 24, ways: 2},    // 12 sets
	{entries: 200, ways: 2},   // 100 sets, several chunks
	{entries: 130, ways: 1},   // direct mapped
	{entries: 4096, ways: 4},  // 1024 sets
	{entries: 8192, ways: 16}, // wide sets
	{entries: 16384, ways: 4, churn: true},
}

type refGeom struct {
	entries, ways int
	churn         bool
}

func (g refGeom) String() string {
	s := fmt.Sprintf("%dx%d", g.entries, g.ways)
	if g.churn {
		s += "churn"
	}
	return s
}

// TestMatchesReferenceModel drives Cache and refCache with the same seeded
// random operation stream and compares every return value, every payload
// seen through a returned pointer, and the order of every scan and
// predicate callback. Writes through returned pointers (stamped with the
// step number) make a pointer to the wrong line show up as a payload
// mismatch later.
func TestMatchesReferenceModel(t *testing.T) {
	for _, g := range refGeoms {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", g, seed), func(t *testing.T) {
				diffRun(t, g, seed, 4000)
			})
		}
	}
}

// FuzzMatchesReferenceModel runs the differential test on fuzzed seeds and
// run lengths over the same geometries.
func FuzzMatchesReferenceModel(f *testing.F) {
	for i := range refGeoms {
		f.Add(uint8(i), int64(1), uint16(4000))
	}
	f.Fuzz(func(t *testing.T, geom uint8, seed int64, steps uint16) {
		diffRun(t, refGeoms[int(geom)%len(refGeoms)], seed, min(int(steps), 4000))
	})
}

func diffRun(t *testing.T, g refGeom, seed int64, steps int) {
	t.Helper()
	entries, ways := g.entries, g.ways
	rng := rand.New(rand.NewSource(seed))
	c := New[uint64](entries, ways)
	r := newRef[uint64](entries, ways)
	numSets := entries / ways
	// A few hot sets with many aliases exercise eviction; uniform draws
	// over a range a few times the capacity probe empty and occupied sets
	// at random.
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
	// ops draws an operation: the ten below uniformly, or in a churn run
	// with eight more draws split between Insert and Invalidate.
	ops := 10
	if g.churn {
		ops = 18
	}
	var inserted []uint64
	for step := 1; step <= steps; step++ {
		a := addr()
		op := rng.Intn(ops)
		if op >= 10 {
			op = op % 2 * 4
		}
		if g.churn && op == 4 && len(inserted) > 0 && rng.Intn(4) != 0 {
			a = inserted[rng.Intn(len(inserted))]
		}
		if g.churn && op <= 1 {
			inserted = append(inserted, a)
		}
		switch op {
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
	}
	var gseen, wseen []visit
	c.ScanAll(scan(&gseen, -1))
	r.ScanAll(scan(&wseen, -1))
	if !slices.Equal(gseen, wseen) || c.Len() != r.Len() {
		t.Fatalf("final state: %d lines (Len %d), reference %d lines (Len %d)", len(gseen), c.Len(), len(wseen), r.Len())
	}
}

// TestPayloadPointerStable: a payload pointer from Insert keeps its address
// and value while every other set fills and the slab grows by nine more
// chunks.
func TestPayloadPointerStable(t *testing.T) {
	const ways = 2
	c := New[uint64](ways*10*chunkLines, ways) // one line per set fills 10 chunks
	p, _, _, _ := c.Insert(0)
	*p = 12345
	for a := uint64(1); a < uint64(c.Sets()); a++ {
		v, _, _, ev := c.Insert(a)
		if ev {
			t.Fatalf("insert of %d evicted", a)
		}
		*v = a
	}
	if c.Len() != c.Sets() || len(c.chunks) != 10 {
		t.Fatalf("Len=%d over %d chunks, want %d over 10", c.Len(), len(c.chunks), c.Sets())
	}
	got, ok := c.Peek(0)
	if !ok || got != p || *got != 12345 {
		t.Fatalf("Peek(0) = (%p,%v), want %p holding 12345", got, ok, p)
	}
}

// TestProbesNeverAllocate: lookups, set probes and a missing Invalidate
// allocate nothing, on an empty cache (no slab, no table yet) and on a
// populated one, whether the probed address is present or not.
func TestProbesNeverAllocate(t *testing.T) {
	probe := func(c *Cache[int], a uint64) {
		c.Lookup(a)
		c.Peek(a)
		c.HasFreeWay(a)
		c.LRUVictim(a, nil)
		c.LRUVictim(a, func(a uint64, v *int) bool { return a%2 == 0 })
		c.ScanSet(a, func(uint64, *int) bool { return true })
		c.Invalidate(a + 1<<40) // never inserted
	}
	c := New[int](64*8, 8)
	for _, filled := range []bool{false, true} {
		if filled {
			for a := uint64(0); a < 300; a++ {
				c.Insert(a * 3)
			}
		}
		for _, a := range []uint64{0, 3, 4, 299 * 3, 1 << 33} {
			if n := testing.AllocsPerRun(50, func() { probe(c, a) }); n != 0 {
				t.Errorf("probes of %d (populated %v) made %.0f allocations, want 0", a, filled, n)
			}
		}
	}
}

// TestChurnKeepsStorageToLiveLines: 100k insert/invalidate rounds over
// distinct addresses, at most k lines live at once, leave the slab at the
// chunks k lines need and the set table at most four times k entries: freed
// slots are reused and deletions leave no tombstones.
func TestChurnKeepsStorageToLiveLines(t *testing.T) {
	const k, rounds = 100, 100_000
	c := New[uint64](4096, 4) // 1024 sets
	// i*1025 = i mod 1024, so k consecutive rounds use k distinct sets.
	addr := func(i uint64) uint64 { return i * 1025 }
	for i := uint64(0); i < rounds; i++ {
		if i >= k {
			if v, ok := c.Invalidate(addr(i - k)); !ok || v != i-k {
				t.Fatalf("round %d: Invalidate(%d) = (%d,%v), want (%d,true)", i, addr(i-k), v, ok, i-k)
			}
		}
		v, _, _, ev := c.Insert(addr(i))
		if ev {
			t.Fatalf("round %d: Insert(%d) evicted", i, addr(i))
		}
		*v = i
	}
	if c.Len() != k {
		t.Fatalf("Len=%d, want %d", c.Len(), k)
	}
	if want := (k + chunkLines - 1) / chunkLines; len(c.chunks) > want {
		t.Errorf("slab holds %d chunks, want <= %d", len(c.chunks), want)
	}
	if len(c.heads.ents) > 4*k {
		t.Errorf("set heads %d entries, want <= %d", len(c.heads.ents), 4*k)
	}
}
