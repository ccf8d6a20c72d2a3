package cache_test

import (
	"testing"

	"innetcc/internal/cache"
	"innetcc/internal/protocol"
)

var sink *cache.Cache[protocol.DataLine]

// TestNewAllocatesNoLines: building the default 2 MB, 8-way L2 is a
// constant number of allocations (the cache header and its page table),
// not one per set.
func TestNewAllocatesNoLines(t *testing.T) {
	allocs := testing.AllocsPerRun(20, func() {
		sink = cache.New[protocol.DataLine](65536, 8)
	})
	if allocs > 2 {
		t.Fatalf("New(65536, 8) made %.0f allocations, want <= 2", allocs)
	}
}
