package protocol_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	_ "innetcc/internal/directory"
	"innetcc/internal/fault"
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

// TestFaultLinkTargetMustExist: a fault plan's link=router:port names an
// entry of the job's Topology.Links, so a target the fabric does not have
// is refused up front instead of injecting nothing.
func TestFaultLinkTargetMustExist(t *testing.T) {
	for _, tc := range []struct {
		topo, link string
		ok         bool
	}{
		{"mesh:4x4", "99:7", false}, // no such router or port
		{"mesh:4x4", "0:3", false},  // node 0 has no West neighbour
		{"mesh:4x4", "0:2", true},
		{"torus:4x4", "0:3", true}, // the wrap link
	} {
		spec := meshSpec(t, 4, 4, protocol.KindTree, 1)
		topo, err := network.ParseTopoSpec(tc.topo)
		if err != nil {
			t.Fatal(err)
		}
		spec.Config.Topology = topo
		fs, err := fault.ParseSpec("drop=1000000,timeout=2000,link=" + tc.link)
		if err != nil {
			t.Fatal(err)
		}
		plan := fs.Plan(1)
		spec.Faults = &plan
		err = spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s link=%s: err = %v, want ok=%v", tc.topo, tc.link, err, tc.ok)
		}
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

// TestLargeMeshTreeRunCompletes: large tree machines run to quiescence
// within a small heap, because cache storage grows with the lines live,
// not with the sets touched, and the packet pool with the packets in
// flight, not with the routers they die at. The 64x64 row (4096 nodes, 81,920 accesses)
// is skipped under -short, and under the race detector, whose shadow
// memory would swamp the bound.
func TestLargeMeshTreeRunCompletes(t *testing.T) {
	for _, tc := range []struct {
		w, h, accesses int
		limit          int64 // bound on the run's HeapAlloc growth
		long           bool
	}{
		{w: 32, h: 32, accesses: 1, limit: 4 << 20},
		{w: 64, h: 64, accesses: 20, limit: 24 << 20, long: true},
	} {
		name := fmt.Sprintf("%dx%d", tc.w, tc.h)
		t.Run(name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("4096-node run")
			}
			if tc.long && raceEnabled {
				t.Skip("heap bound is meaningless under the race detector")
			}
			m, err := protocol.Build(meshSpec(t, tc.w, tc.h, protocol.KindTree, tc.accesses))
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := m.Run(10_000_000); err != nil {
				t.Fatalf("%s tree run: %v", name, err)
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			runtime.KeepAlive(m)
			grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
			t.Logf("%s tree run (%d accesses/node, %d cycles) raised HeapAlloc by %.1f MB",
				name, tc.accesses, m.Kernel.Now(), float64(grew)/(1<<20))
			if grew >= tc.limit {
				t.Fatalf("%s tree run raised HeapAlloc by %d MB, want < %d MB", name, grew>>20, tc.limit>>20)
			}
		})
	}
}
