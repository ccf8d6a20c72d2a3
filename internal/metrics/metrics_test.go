package metrics

import (
	"testing"

	"innetcc/internal/stats"
)

func TestRecorderWrapsAndOrders(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(int64(i), EvTeardown, int16(i), uint64(i), 0)
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		want := int64(6 + i) // oldest retained is event 6
		if e.Cycle != want {
			t.Errorf("event %d cycle = %d, want %d", i, e.Cycle, want)
		}
	}
}

func TestRecorderPartialFill(t *testing.T) {
	r := NewRecorder(8)
	r.Record(5, EvInject, 1, 0x40, 0)
	r.Record(9, EvComplete, 1, 0x40, 4)
	evs := r.Events()
	if len(evs) != 2 || evs[0].Kind != EvInject || evs[1].Kind != EvComplete {
		t.Fatalf("unexpected events %v", evs)
	}
}

func TestSeriesBuckets(t *testing.T) {
	s := Series{Bucket: 8}
	s.Observe(0, 2)
	s.Observe(7, 4)
	s.Observe(16, 10)
	pts := s.Points()
	if len(pts) != 2 {
		t.Fatalf("got %d points, want 2", len(pts))
	}
	if pts[0].Cycle != 0 || pts[0].Mean != 3 || pts[0].N != 2 {
		t.Errorf("bucket 0 = %+v", pts[0])
	}
	if pts[1].Cycle != 16 || pts[1].Mean != 10 || pts[1].N != 1 {
		t.Errorf("bucket 2 = %+v", pts[1])
	}
}

func TestBreakdownSumsExactly(t *testing.T) {
	var b Breakdown
	cases := []struct {
		write                    bool
		total, net, trav, serial int64
	}{
		{false, 100, 60, 30, 10},
		{false, 50, 50, 50, 0},   // all traversal
		{true, 80, 90, 30, 10},   // net overcount: clamped to total
		{true, 40, 30, 45, 0},    // trav overcount: clamped to net
		{false, 40, 30, 20, 500}, // serial overcount: clamped to residual
	}
	for _, c := range cases {
		b.Record(c.write, c.total, c.net, c.trav, c.serial)
	}
	if got := b.Read.Sum(); got != b.Read.Total {
		t.Errorf("read components sum %d != total %d", got, b.Read.Total)
	}
	if got := b.Write.Sum(); got != b.Write.Total {
		t.Errorf("write components sum %d != total %d", got, b.Write.Total)
	}
	if b.Read.N != 3 || b.Write.N != 2 {
		t.Errorf("counts = %d/%d, want 3/2", b.Read.N, b.Write.N)
	}
	if b.Read.Queue < 0 || b.Read.Serial < 0 || b.Read.Traversal < 0 || b.Read.Controller < 0 {
		t.Errorf("negative read component: %+v", b.Read)
	}
	if b.Write.Queue < 0 || b.Write.Serial < 0 || b.Write.Traversal < 0 || b.Write.Controller < 0 {
		t.Errorf("negative write component: %+v", b.Write)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Enabled() {
		t.Fatal("nil collector reports enabled")
	}
	c.Add(stats.MetricTreeHit, 1)
	c.Event(10, EvTeardown, 3, 0xbeef, 0)
}

// TestDisabledPathZeroAllocs is the satellite guarantee: the full probe
// surface on a nil (disabled) collector performs zero allocations, so a
// metrics-off simulation tick pays only nil checks. The machine's own
// counter increments are allocation-free too.
func TestDisabledPathZeroAllocs(t *testing.T) {
	var c *Collector
	var ctr stats.Counters
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(stats.MetricTreeHit, 1)
		c.Add(stats.MetricHopsSaved, -2)
		c.Event(10, EvTeardown, 3, 0xbeef, 0)
		c.Event(11, EvDeadlockAbort, 4, 0xbeef, 1)
		ctr.Inc(stats.TreeTeardowns, 1)
		_ = c.Enabled()
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocated %.1f per run, want 0", allocs)
	}
}

// TestEnabledHotPathZeroAllocs: counter adds, flight-recorder appends and
// NoC updates are allocation-free in the enabled path as well (only series
// growth amortizes allocations).
func TestEnabledHotPathZeroAllocs(t *testing.T) {
	c := New(Options{FlightSize: 16})
	c.NoC = NewNoC(4, 6, 5)
	var ctr stats.Counters
	allocs := testing.AllocsPerRun(1000, func() {
		c.Add(stats.MetricTreeHit, 1)
		ctr.Inc(stats.TreeTeardowns, 1)
		c.Event(10, EvTreeHit, 2, 0x80, 0)
		c.NoC.LinkBusy[c.NoC.OutIdx(1, 2)] += 5
		c.NoC.QueueSum[c.NoC.InIdx(1, 2)]++
	})
	if allocs != 0 {
		t.Fatalf("enabled hot path allocated %.1f per run, want 0", allocs)
	}
	if c.Counters.Get(stats.MetricTreeHit.String()) == 0 {
		t.Fatal("Add did not reach the collector's counters")
	}
}

func TestCollectorDefaults(t *testing.T) {
	c := New(Options{})
	if c.Flight == nil || cap(c.Flight.buf) != 4096 {
		t.Fatalf("default flight size wrong")
	}
	if c.InFlight.Bucket != 4096 {
		t.Fatalf("default bucket = %d, want 4096", c.InFlight.Bucket)
	}
	if !c.SampleDue(0) || !c.SampleDue(8192) || c.SampleDue(5) {
		t.Fatal("SampleDue mask wrong")
	}
	c2 := New(Options{SeriesBucket: 1000})
	if c2.InFlight.Bucket != 1024 {
		t.Fatalf("bucket rounding = %d, want 1024", c2.InFlight.Bucket)
	}
}

func TestNoCIndexing(t *testing.T) {
	n := NewNoC(16, 6, 5)
	seen := map[int]bool{}
	for r := 0; r < 16; r++ {
		for p := 0; p < 5; p++ {
			i := n.OutIdx(r, p)
			if i < 0 || i >= len(n.LinkBusy) || seen[i] {
				t.Fatalf("OutIdx(%d,%d) = %d invalid or duplicate", r, p, i)
			}
			seen[i] = true
		}
	}
	seen = map[int]bool{}
	for r := 0; r < 16; r++ {
		for p := 0; p < 6; p++ {
			i := n.InIdx(r, p)
			if i < 0 || i >= len(n.QueueSum) || seen[i] {
				t.Fatalf("InIdx(%d,%d) = %d invalid or duplicate", r, p, i)
			}
			seen[i] = true
		}
	}
	n.Cycles = 100
	n.LinkBusy[n.OutIdx(3, 1)] = 50
	if u := n.Util(3, 1); u != 0.5 {
		t.Fatalf("Util = %v, want 0.5", u)
	}
}
