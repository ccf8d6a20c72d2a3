package cache_test

import (
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
