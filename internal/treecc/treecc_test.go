package treecc

import (
	"testing"

	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

func runTrace(t *testing.T, cfg protocol.Config, tr *trace.Trace, think int64) (*protocol.Machine, *Engine) {
	t.Helper()
	m, err := protocol.Build(protocol.Spec{Config: cfg, Trace: tr, Think: think})
	if err != nil {
		t.Fatal(err)
	}
	e := New(m)
	if err := m.Run(20_000_000); err != nil {
		t.Fatal(err)
	}
	checkTreeInvariants(t, m, e)
	return m, e
}

func smallConfig() protocol.Config {
	return protocol.DefaultConfig()
}

func handTrace(scripts map[int][]trace.Access) *trace.Trace {
	tr := &trace.Trace{Name: "hand", PerNode: make([][]trace.Access, 16)}
	for n, s := range scripts {
		tr.PerNode[n] = s
	}
	return tr
}

func TestReadBuildsFreshTree(t *testing.T) {
	// Figure 2(a): a first read loads from memory and constructs a
	// virtual tree from the home node to the requester, who becomes
	// root.
	tr := handTrace(map[int][]trace.Access{3: {trace.NewAccess(0x40, false)}})
	m, e := runTrace(t, smallConfig(), tr, 5)
	if m.Lat.Read.Mean() < 200 {
		t.Fatalf("first read latency %.0f below memory latency", m.Lat.Read.Mean())
	}
	line, ok := e.Tree(3).Peek(0x40)
	if !ok || !line.IsRoot || !line.LocalValid {
		t.Fatalf("requester tree line wrong: %v ok=%v", line, ok)
	}
	home := m.Cfg.Home(0x40)
	if home != 3 {
		if _, ok := e.Tree(home).Peek(0x40); !ok {
			t.Fatal("home node not part of the tree")
		}
	}
	if dl, ok := m.PeekLine(3, 0x40); !ok || dl.State != protocol.Shared {
		t.Fatal("data not installed Shared at requester")
	}
}

func TestSecondReadJoinsTree(t *testing.T) {
	// Figure 2(b): a second reader grafts onto the existing tree and is
	// served without an off-chip access.
	tr := handTrace(map[int][]trace.Access{
		1: {trace.NewAccess(0x80, false)},
		9: {trace.NewAccess(0x80, false), trace.NewAccess(0x80, false)},
	})
	m, e := runTrace(t, smallConfig(), tr, 30)
	if got := m.Counters.Get("tree.mem_reads"); got != 1 {
		t.Fatalf("memory reads %d, want exactly 1 (second read joins tree)", got)
	}
	if m.Counters.Get("tree.sharer_serves") == 0 {
		t.Fatal("no read was served by an in-network tree hit")
	}
	for _, n := range []int{1, 9} {
		if line, ok := e.Tree(n).Peek(0x80); !ok || !line.LocalValid {
			t.Fatalf("node %d not a valid tree sharer", n)
		}
	}
}

func TestWriteTearsDownTree(t *testing.T) {
	// Figure 2(c): a write to a shared line tears the tree down
	// in-transit, then builds a fresh tree rooted at the writer.
	tr := handTrace(map[int][]trace.Access{
		2:  {trace.NewAccess(0x100, false)},
		5:  {trace.NewAccess(0x100, false)},
		12: {trace.NewAccess(0x100, false), trace.NewAccess(0x200, false), trace.NewAccess(0x100, true)},
	})
	m, e := runTrace(t, smallConfig(), tr, 8)
	copies := m.Check.Copies(0x100)
	if len(copies) != 1 || copies[0] != 12 {
		t.Fatalf("copies after write %v, want [12]", copies)
	}
	line, ok := e.Tree(12).Peek(0x100)
	if !ok || !line.IsRoot || !line.LocalValid {
		t.Fatal("writer is not root of the new tree")
	}
	if dl, _ := m.PeekLine(12, 0x100); dl == nil || dl.State != protocol.Modified {
		t.Fatal("writer line not Modified")
	}
	if m.Counters.Get("tree.teardowns_completed") == 0 {
		t.Fatal("no teardown completed")
	}
}

func TestReadOfDirtyLineWritesBack(t *testing.T) {
	tr := handTrace(map[int][]trace.Access{
		0: {trace.NewAccess(0x140, true)},
		7: {trace.NewAccess(0x140, false), trace.NewAccess(0x140, false), trace.NewAccess(0x140, false)},
	})
	m, _ := runTrace(t, smallConfig(), tr, 3)
	if v := m.Mem.Peek(0x140); v != 1 {
		t.Fatalf("memory holds version %d after dirty read, want 1", v)
	}
}

func TestWriteUpgradeFromShared(t *testing.T) {
	// A node reads (Shared) then writes the same line: its write request
	// bumps into its own tree at its own router and tears it down.
	tr := handTrace(map[int][]trace.Access{
		6: {trace.NewAccess(0x180, false), trace.NewAccess(0x300, false), trace.NewAccess(0x180, true)},
	})
	m, _ := runTrace(t, smallConfig(), tr, 4)
	if got := m.Check.CurrentVersion(0x180); got != 1 {
		t.Fatalf("version %d, want 1", got)
	}
	if dl, ok := m.PeekLine(6, 0x180); !ok || dl.State != protocol.Modified {
		t.Fatal("upgrade did not end Modified")
	}
}

func TestConcurrentWritersSerialize(t *testing.T) {
	scripts := map[int][]trace.Access{}
	for n := 0; n < 16; n++ {
		scripts[n] = []trace.Access{trace.NewAccess(0x500, true), trace.NewAccess(0x500, true)}
	}
	m, _ := runTrace(t, smallConfig(), handTrace(scripts), 2)
	if got := m.Check.CurrentVersion(0x500); got != 32 {
		t.Fatalf("final version %d, want 32", got)
	}
}

func TestManySharersThenWrite(t *testing.T) {
	scripts := map[int][]trace.Access{}
	for n := 0; n < 16; n++ {
		scripts[n] = []trace.Access{trace.NewAccess(0x240, false)}
	}
	scripts[10] = append(scripts[10], trace.NewAccess(0x999, false), trace.NewAccess(0x240, true))
	m, _ := runTrace(t, smallConfig(), handTrace(scripts), 5)
	copies := m.Check.Copies(0x240)
	if len(copies) != 1 || copies[0] != 10 {
		t.Fatalf("copies %v, want [10]", copies)
	}
}

func TestVictimCachingServesFromHome(t *testing.T) {
	// Build a tree, tear it down via a conflicting write's proactive
	// machinery... simplest: write then read by another node leaves a
	// tree; force teardown through a same-set conflict by shrinking the
	// tree cache, then re-read: the home's victim copy avoids memory.
	cfg := smallConfig()
	cfg.TreeEntries, cfg.TreeWays = 64, 2
	var accs []trace.Access
	for a := 0; a < 300; a++ {
		accs = append(accs, trace.NewAccess(uint64(a*16+1), false))
	}
	for a := 0; a < 40; a++ {
		accs = append(accs, trace.NewAccess(uint64(a*16+1), false))
	}
	tr := handTrace(map[int][]trace.Access{4: accs})
	m, _ := runTrace(t, cfg, tr, 2)
	if m.Counters.Get("tree.victim_hits") == 0 {
		t.Fatal("victim cache never hit after tree evictions")
	}
}

func TestProactiveEvictionFires(t *testing.T) {
	cfg := smallConfig()
	cfg.TreeEntries, cfg.TreeWays = 32, 1
	var accs []trace.Access
	for a := 0; a < 300; a++ {
		accs = append(accs, trace.NewAccess(uint64(a*16+2), a%3 == 0))
	}
	tr := handTrace(map[int][]trace.Access{8: accs, 2: accs})
	m, _ := runTrace(t, cfg, tr, 2)
	if m.Counters.Get("tree.proactive_evictions") == 0 {
		t.Fatal("proactive eviction never fired under tree-cache pressure")
	}
}

func TestTinyTreeCacheStress(t *testing.T) {
	// Heavy conflict pressure on a minuscule tree cache: conflict
	// evictions, stalls and possibly deadlock recovery must all resolve
	// and the verifier stay quiet.
	cfg := smallConfig()
	cfg.TreeEntries, cfg.TreeWays = 16, 1
	p, _ := trace.ProfileByName("fft")
	tr := trace.Generate(p, 16, 150, 3)
	m, _ := runTrace(t, cfg, tr, 4)
	if m.Counters.Get("tree.conflict_evictions") == 0 &&
		m.Counters.Get("tree.proactive_evictions") == 0 {
		t.Fatal("tiny tree cache produced no evictions at all")
	}
}

func TestSyntheticBenchmarksRunClean(t *testing.T) {
	for _, name := range []string{"fft", "wsp", "ocn"} {
		name := name
		t.Run(name, func(t *testing.T) {
			p, _ := trace.ProfileByName(name)
			tr := trace.Generate(p, 16, 250, 7)
			m, _ := runTrace(t, smallConfig(), tr, p.Think)
			if m.Lat.Read.N == 0 || m.Lat.Write.N == 0 {
				t.Fatal("missing reads or writes")
			}
		})
	}
}

func TestSmallL2TriggersRootEvictionTeardowns(t *testing.T) {
	cfg := smallConfig()
	cfg.L2Entries, cfg.L2Ways = 128, 2
	p, _ := trace.ProfileByName("rad")
	tr := trace.Generate(p, 16, 200, 9)
	m, _ := runTrace(t, cfg, tr, p.Think)
	if m.Counters.Get("l2.evictions") == 0 {
		t.Fatal("small L2 produced no evictions")
	}
}

func Test64NodeRunsClean(t *testing.T) {
	cfg := smallConfig()
	cfg.Topology = network.MeshSpec(8, 8)
	p, _ := trace.ProfileByName("bar")
	tr := trace.Generate(p, 64, 60, 21)
	m, _ := runTrace(t, cfg, tr, p.Think)
	if m.Lat.Read.N == 0 {
		t.Fatal("no reads on 64 nodes")
	}
}

func TestAboveNetworkModeIsSlower(t *testing.T) {
	p, _ := trace.ProfileByName("wns")
	tr := trace.Generate(p, 16, 200, 5)
	cfgIn := smallConfig()
	mIn, _ := runTrace(t, cfgIn, tr, p.Think)
	cfgAbove := smallConfig()
	cfgAbove.AboveNetworkTree = true
	mAbove, _ := runTrace(t, cfgAbove, tr, p.Think)
	if !(mAbove.Lat.Read.Mean() > mIn.Lat.Read.Mean()) {
		t.Fatalf("above-network reads (%.1f) not slower than in-network (%.1f)",
			mAbove.Lat.Read.Mean(), mIn.Lat.Read.Mean())
	}
}

func TestDeadlockRecoveryAccounting(t *testing.T) {
	// Brutal contention on a direct-mapped, tiny tree cache with many
	// writers should exercise the timeout/backoff path at least once;
	// when it does, deadlock cycles must be accounted.
	cfg := smallConfig()
	cfg.TreeEntries, cfg.TreeWays = 16, 1
	scripts := map[int][]trace.Access{}
	for n := 0; n < 16; n++ {
		var accs []trace.Access
		for a := 0; a < 60; a++ {
			accs = append(accs, trace.NewAccess(uint64((a%24)*16+n%4), a%2 == 0))
		}
		scripts[n] = accs
	}
	m, _ := runTrace(t, cfg, handTrace(scripts), 2)
	aborts := m.Counters.Get("tree.deadlock_aborts")
	if aborts > 0 && m.Lat.DeadlockRead.Sum+m.Lat.DeadlockWrite.Sum == 0 {
		t.Fatal("deadlock aborts occurred but no recovery cycles were accounted")
	}
	t.Logf("deadlock aborts: %d", aborts)
}
