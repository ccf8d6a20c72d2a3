package trace

import (
	"errors"
	"runtime"
	"testing"
	"unsafe"

	"innetcc/internal/stats"
)

// An Access is one 8-byte word: a trace holds one per reference, so its
// size is the run's memory per access.
func TestAccessIsOneWord(t *testing.T) {
	if got := unsafe.Sizeof(Access(0)); got != 8 {
		t.Fatalf("Access is %d bytes, want 8", got)
	}
}

// The packing keeps every 63-bit line address and the write flag apart,
// and refuses an address the flag bit would overwrite.
func TestAccessPacking(t *testing.T) {
	for _, addr := range []uint64{0, 1, 0xabc, 1 << 62, MaxAddr} {
		for _, write := range []bool{false, true} {
			a := NewAccess(addr, write)
			if a.Addr() != addr || a.Write() != write {
				t.Errorf("NewAccess(%#x, %v) reads back (%#x, %v)", addr, write, a.Addr(), a.Write())
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("NewAccess accepted an address above MaxAddr")
		}
	}()
	NewAccess(MaxAddr+1, false)
}

// Generate allocates its 8-byte accesses plus a population of at most 9
// bytes per working-set line (an 8-byte RNG checkpoint each) and 40 KiB
// for the working window's built lines. Building every line's 16-byte
// record and sharer group up front took 28-33 bytes per line: 214 kB
// beyond the accesses for wsp, 610 kB for rad, the largest Figure 9
// population. The accesses' own cost is measured by allocating streams of
// the same size, so the bound holds whatever size classes they round to.
func TestGenerateAllocation(t *testing.T) {
	for _, c := range []struct {
		profile         string
		nodes, accesses int
	}{
		{"wsp", 16, 30000},
		{"rad", 64, 120},
	} {
		p, _ := ProfileByName(c.profile)
		streams := allocated(func() {
			s := make([][]Access, c.nodes)
			for n := range s {
				s[n] = make([]Access, 0, c.accesses)
			}
		})
		var tr *Trace
		got := allocated(func() { tr = Generate(p, c.nodes, c.accesses, 42) })
		if limit := streams + 9*uint64(p.Lines) + 40<<10; got > limit {
			t.Errorf("Generate(%s, %d, %d) allocated %d bytes, want at most %d (%d for the accesses)",
				c.profile, c.nodes, c.accesses, got, limit, streams)
		}
		if tr.TotalAccesses() != c.nodes*c.accesses {
			t.Errorf("%s: %d accesses, want %d", c.profile, tr.TotalAccesses(), c.nodes*c.accesses)
		}
	}
}

// allocated returns the bytes the heap allocated while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestBenchmarksCoverPaperSet(t *testing.T) {
	want := []string{"fft", "lu", "bar", "rad", "wns", "wsp", "ocn", "ray"}
	bs := Benchmarks()
	if len(bs) != len(want) {
		t.Fatalf("%d benchmarks, want %d", len(bs), len(want))
	}
	for i, w := range want {
		if bs[i].Name != w {
			t.Fatalf("benchmark %d is %q, want %q", i, bs[i].Name, w)
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("wsp")
	if err != nil || p.Name != "wsp" {
		t.Fatalf("ProfileByName(wsp) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown benchmark did not error")
	}
}

func TestGenerateShape(t *testing.T) {
	p, _ := ProfileByName("fft")
	tr := Generate(p, 16, 100, 1)
	if len(tr.PerNode) != 16 {
		t.Fatalf("%d node streams, want 16", len(tr.PerNode))
	}
	for n, s := range tr.PerNode {
		if len(s) != 100 {
			t.Fatalf("node %d has %d accesses, want 100", n, len(s))
		}
	}
	if tr.TotalAccesses() != 1600 {
		t.Fatalf("TotalAccesses=%d", tr.TotalAccesses())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p, _ := ProfileByName("bar")
	a := Generate(p, 16, 200, 42)
	b := Generate(p, 16, 200, 42)
	for n := range a.PerNode {
		for i := range a.PerNode[n] {
			if a.PerNode[n][i] != b.PerNode[n][i] {
				t.Fatal("same-seed traces differ")
			}
		}
	}
	c := Generate(p, 16, 200, 43)
	same := true
	for n := range a.PerNode {
		for i := range a.PerNode[n] {
			if a.PerNode[n][i] != c.PerNode[n][i] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestWriteFractionRoughlyMatchesProfile(t *testing.T) {
	p, _ := ProfileByName("ocn")
	tr := Generate(p, 16, 2000, 7)
	writes := 0
	for _, s := range tr.PerNode {
		for _, a := range s {
			if a.Write() {
				writes++
			}
		}
	}
	frac := float64(writes) / float64(tr.TotalAccesses())
	// Read-only lines dilute writes below WriteFrac while RMW episodes
	// add writes above it; assert the broad envelope.
	lo := p.WriteFrac*(1-p.ReadOnlyFrac) - 0.08
	hi := p.WriteFrac + p.RMW*0.6 + 0.08
	if frac < lo || frac > hi {
		t.Fatalf("write fraction %.3f outside [%.3f, %.3f]", frac, lo, hi)
	}
}

// The paper's key per-benchmark orderings must be visible in the generated
// traces: lu and rad have the lowest sharing; wsp the highest sharing and
// the highest home-node skew; fft and lu the lowest skew.
func TestCalibrationOrderings(t *testing.T) {
	shar := map[string]float64{}
	skew := map[string]float64{}
	for _, p := range Benchmarks() {
		tr := Generate(p, 16, 1500, 99)
		s, homes := tr.Stats(16)
		shar[p.Name] = s
		skew[p.Name] = stats.RMSSkew(homes)
	}
	if !(shar["wsp"] > shar["lu"] && shar["wsp"] > shar["rad"]) {
		t.Fatalf("wsp sharing %.3f not above lu %.3f / rad %.3f", shar["wsp"], shar["lu"], shar["rad"])
	}
	if !(shar["bar"] > shar["lu"]) {
		t.Fatalf("bar sharing %.3f not above lu %.3f", shar["bar"], shar["lu"])
	}
	if !(skew["wsp"] > skew["fft"] && skew["wsp"] > skew["lu"]) {
		t.Fatalf("wsp skew %.4f not above fft %.4f / lu %.4f", skew["wsp"], skew["fft"], skew["lu"])
	}
}

func TestHomeAddressMapping(t *testing.T) {
	// Generated addresses must distribute across all homes (addr % nodes).
	p, _ := ProfileByName("fft")
	tr := Generate(p, 16, 1000, 3)
	_, homes := tr.Stats(16)
	zero := 0
	for _, c := range homes {
		if c == 0 {
			zero++
		}
	}
	if zero > 0 {
		t.Fatalf("%d home nodes receive no accesses", zero)
	}
}

func TestWorkingSetConstantAcrossNodeCounts(t *testing.T) {
	// The paper re-parallelizes the same inputs at 64 nodes: the working
	// set must not scale with the node count, so per-line sharing grows.
	p, _ := ProfileByName("fft")
	t16 := Generate(p, 16, 500, 5)
	t64 := Generate(p, 64, 500, 5)
	s16, _ := t16.Stats(16)
	s64, _ := t64.Stats(64)
	if !(s64 > s16) {
		t.Fatalf("64-node sharing (%.2f) not above 16-node (%.2f)", s64, s16)
	}
}

func TestWindowCreatesLocality(t *testing.T) {
	narrow := Profile{Name: "hi", Lines: 10000, WriteFrac: 0.3, GroupSize: 2, AvgReaders: 1, Window: 16, Think: 5}
	wide := Profile{Name: "lo", Lines: 10000, WriteFrac: 0.3, GroupSize: 2, AvgReaders: 1, Window: 4000, Think: 5}
	d := func(p Profile) int {
		tr := Generate(p, 16, 500, 11)
		m := map[uint64]bool{}
		for _, a := range tr.PerNode[0] {
			m[a.Addr()] = true
		}
		return len(m)
	}
	if !(d(narrow) < d(wide)) {
		t.Fatal("narrow working window did not shrink per-node footprint")
	}
}

func TestCheckSizeRefusesAboveTheCap(t *testing.T) {
	for _, c := range []struct {
		nodes, perNode int
		ok             bool
	}{
		{16, MaxAccesses / 16, true},
		{16, MaxAccesses/16 + 1, false},
		{4096, MaxAccesses / 4096, true},
		{16, 2_000_000_000, false},
		{1 << 20, 1 << 50, false}, // the product overflows int64
	} {
		err := CheckSize(c.nodes, c.perNode)
		var se *SizeError
		if c.ok != (err == nil) || (err != nil && (!errors.As(err, &se) || se.Nodes != c.nodes || se.AccessesPerNode != c.perNode)) {
			t.Errorf("CheckSize(%d, %d) = %v, want ok=%v", c.nodes, c.perNode, err, c.ok)
		}
	}
}

// Generate refuses an oversized trace with a *SizeError before it
// allocates one.
func TestGenerateRefusesOversizedTrace(t *testing.T) {
	defer func() {
		var se *SizeError
		if err, _ := recover().(error); !errors.As(err, &se) {
			t.Fatalf("Generate panicked with %v, want a *SizeError", err)
		}
	}()
	p, _ := ProfileByName("fft")
	Generate(p, 16, 2_000_000_000, 1)
	t.Fatal("Generate returned an oversized trace")
}
