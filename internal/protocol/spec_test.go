package protocol_test

import (
	"runtime"
	"strings"
	"testing"

	_ "innetcc/internal/directory"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
	_ "innetcc/internal/treecc"
)

func meshSpec(t *testing.T, w, h int, kind protocol.EngineKind, accesses int) protocol.Spec {
	t.Helper()
	p, err := trace.ProfileByName("bar")
	if err != nil {
		t.Fatal(err)
	}
	cfg := protocol.DefaultConfig()
	cfg.Topology = network.MeshSpec(w, h)
	cfg.Seed = 7
	return protocol.Spec{
		Config: cfg, Trace: trace.Generate(p, cfg.Nodes(), accesses, cfg.Seed),
		Think: p.Think, Engine: kind,
	}
}

// TestDirectoryEngineNodeLimit: the directory's full-map sharer bitset
// holds 64 nodes, so larger directory machines are refused up front
// instead of running with sharers silently missing. The tree engine has no
// such limit.
func TestDirectoryEngineNodeLimit(t *testing.T) {
	_, err := protocol.Build(meshSpec(t, 9, 9, protocol.KindDirectory, 1))
	if err == nil || !strings.Contains(err.Error(), "full-map sharer") {
		t.Fatalf("directory on 9x9: err = %v, want the full-map sharer limit", err)
	}
	if _, err := protocol.Build(meshSpec(t, 8, 8, protocol.KindDirectory, 1)); err != nil {
		t.Fatalf("directory on 8x8: %v", err)
	}
	if _, err := protocol.Build(meshSpec(t, 9, 9, protocol.KindTree, 1)); err != nil {
		t.Fatalf("tree on 9x9: %v", err)
	}
}

// TestLargeMeshBuildFitsInMemory: a 4096-node tree machine with the
// default 2 MB L2 per node builds within a small heap, because cache
// storage is only allocated as lines are touched.
func TestLargeMeshBuildFitsInMemory(t *testing.T) {
	spec := meshSpec(t, 64, 64, protocol.KindTree, 1)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := protocol.Build(spec)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(m)
	const limit = 8 << 20
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("64x64 tree build raised HeapAlloc by %.1f MB", float64(grew)/(1<<20))
	if grew >= limit {
		t.Fatalf("64x64 tree build raised HeapAlloc by %d MB, want < %d MB", grew>>20, limit>>20)
	}
}

// TestLargeMeshTreeRunCompletes: a 1024-node tree machine runs one access
// per node to quiescence.
func TestLargeMeshTreeRunCompletes(t *testing.T) {
	m, err := protocol.Build(meshSpec(t, 32, 32, protocol.KindTree, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(10_000_000); err != nil {
		t.Fatalf("32x32 tree run: %v", err)
	}
}
