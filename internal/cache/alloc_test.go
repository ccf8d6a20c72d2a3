package cache_test

import (
	"slices"
	"testing"

	"innetcc/internal/cache"
	"innetcc/internal/protocol"
)

var sink *cache.Cache[protocol.DataLine]

// TestNewAllocatesNoLines: building the default 2 MB, 8-way L2 is a
// single allocation, the cache header: the slab and its table wait for the
// first insert.
func TestNewAllocatesNoLines(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		sink = cache.New[protocol.DataLine](65536, 8)
	})
	if allocs > 1 {
		t.Fatalf("New(65536, 8) made %.0f allocations, want <= 1", allocs)
	}
}

// TestScanAllReusesSetList: the state digest scans every cache of a
// machine, so ScanAll keeps its sorted list of occupied sets and a repeat
// scan allocates nothing. A scan nested in fn still sees every line in
// order.
func TestScanAllReusesSetList(t *testing.T) {
	c := cache.New[protocol.DataLine](65536, 8)
	for a := uint64(0); a < 3000; a++ {
		c.Insert(a * 37)
	}
	var lines []uint64
	collect := func(addr uint64, _ *protocol.DataLine) bool {
		lines = append(lines, addr)
		return true
	}
	c.ScanAll(collect)
	want := lines
	n := 0
	count := func(uint64, *protocol.DataLine) bool { n++; return true }
	if allocs := testing.AllocsPerRun(20, func() { c.ScanAll(count) }); allocs != 0 {
		t.Fatalf("a repeat ScanAll made %.0f allocations, want 0", allocs)
	}
	var outer []uint64
	c.ScanAll(func(addr uint64, _ *protocol.DataLine) bool {
		outer = append(outer, addr)
		if len(outer) == 1 {
			lines = nil
			c.ScanAll(collect)
		}
		return true
	})
	if !slices.Equal(outer, want) || !slices.Equal(lines, want) {
		t.Fatalf("nested ScanAll: outer saw %d lines, inner %d, want %d in the first scan's order", len(outer), len(lines), len(want))
	}
}
