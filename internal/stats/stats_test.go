package stats

import (
	"encoding/binary"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestAccumulatorBasics(t *testing.T) {
	var a Accumulator
	if a.Mean() != 0 {
		t.Fatal("empty accumulator mean should be 0")
	}
	a.Add(10)
	a.Add(20)
	a.Add(30)
	if a.N != 3 || a.Sum != 60 {
		t.Fatalf("N=%d Sum=%v, want 3/60", a.N, a.Sum)
	}
	if a.Mean() != 20 {
		t.Fatalf("Mean=%v, want 20", a.Mean())
	}
	if a.MinV != 10 || a.MaxV != 30 {
		t.Fatalf("min/max %v/%v, want 10/30", a.MinV, a.MaxV)
	}
}

func TestAccumulatorMerge(t *testing.T) {
	var a, b Accumulator
	a.Add(1)
	a.Add(5)
	b.Add(10)
	a.Merge(&b)
	if a.N != 3 || a.MaxV != 10 || a.MinV != 1 {
		t.Fatalf("merged accumulator %+v wrong", a)
	}
	var empty Accumulator
	a.Merge(&empty)
	if a.N != 3 {
		t.Fatal("merging empty changed count")
	}
	var c Accumulator
	c.Merge(&a)
	if c.N != 3 || c.Mean() != a.Mean() {
		t.Fatal("merge into empty lost data")
	}
}

func TestAccumulatorMergeMatchesSequentialAdds(t *testing.T) {
	err := quick.Check(func(xs, ys []int16) bool {
		var all, a, b Accumulator
		for _, x := range xs {
			all.Add(float64(x))
			a.Add(float64(x))
		}
		for _, y := range ys {
			all.Add(float64(y))
			b.Add(float64(y))
		}
		a.Merge(&b)
		return a.N == all.N && a.Sum == all.Sum && a.MinV == all.MinV && a.MaxV == all.MaxV
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLatencyStatsSplitsClasses(t *testing.T) {
	var l LatencyStats
	l.Record(false, 100)
	l.Record(false, 200)
	l.Record(true, 50)
	if l.Read.N != 2 || l.Write.N != 1 {
		t.Fatalf("read/write counts %d/%d, want 2/1", l.Read.N, l.Write.N)
	}
	if l.Read.Mean() != 150 || l.Write.Mean() != 50 {
		t.Fatalf("means %v/%v", l.Read.Mean(), l.Write.Mean())
	}
}

func TestDeadlockShare(t *testing.T) {
	var l LatencyStats
	l.Record(false, 1000)
	l.RecordDeadlock(false, 2)
	l.Record(true, 500)
	l.RecordDeadlock(true, 5)
	r, w := l.DeadlockShare()
	if math.Abs(r-0.2) > 1e-9 {
		t.Fatalf("read deadlock share %v, want 0.2", r)
	}
	if math.Abs(w-1.0) > 1e-9 {
		t.Fatalf("write deadlock share %v, want 1.0", w)
	}
	var empty LatencyStats
	r, w = empty.DeadlockShare()
	if r != 0 || w != 0 {
		t.Fatal("empty stats should report zero deadlock share")
	}
}

func TestReduction(t *testing.T) {
	if got := Reduction(200, 100); got != 50 {
		t.Fatalf("Reduction(200,100)=%v, want 50", got)
	}
	if got := Reduction(100, 150); got != -50 {
		t.Fatalf("Reduction(100,150)=%v, want -50", got)
	}
	if got := Reduction(0, 10); got != 0 {
		t.Fatalf("Reduction with zero base = %v, want 0", got)
	}
}

func TestCounters(t *testing.T) {
	var c Counters
	if c.Get(TreeTeardowns.String()) != 0 {
		t.Fatal("unset counter should be 0")
	}
	c.Inc(TreeTeardowns, 3)
	c.Inc(TreeTeardowns, 2)
	c.Inc(TreeHeldAcks, 1)
	c.Inc(FaultDrops, 0)
	if c.Get("tree.teardowns") != 5 || c.Get("tree.held_acks") != 1 {
		t.Fatalf("counter values wrong: %d %d", c.Get("tree.teardowns"), c.Get("tree.held_acks"))
	}
	names := c.Names()
	want := []string{"fault.drops", "tree.held_acks", "tree.teardowns"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("Names()=%v, want %v (sorted, zero increments included)", names, want)
	}
}

// pinnedNames pins every counter's export name to its ID. The names are
// persisted (result cache, state digest, CSV export) and the name table is
// positional, so a reorder or typo there must fail here.
var pinnedNames = map[Counter]string{
	DirEvictions:            "dir.evictions",
	DirFwdMisses:            "dir.fwd_misses",
	DirFwds:                 "dir.fwds",
	DirInvPackets:           "dir.inv_packets",
	DirInvals:               "dir.invals",
	DirMemReads:             "dir.mem_reads",
	DirVictimHits:           "dir.victim_hits",
	FaultChecksumDrops:      "fault.checksum_drops",
	FaultCorruptions:        "fault.corruptions",
	FaultDrops:              "fault.drops",
	FaultProbes:             "fault.probes",
	FaultStallCycles:        "fault.stall_cycles",
	L2Evictions:             "l2.evictions",
	RetryReissues:           "retry.reissues",
	RetryStaleReplies:       "retry.stale_replies",
	TreeBackoffs:            "tree.backoffs",
	TreeConflictEvictions:   "tree.conflict_evictions",
	TreeDeadlockAborts:      "tree.deadlock_aborts",
	TreeHeldAcks:            "tree.held_acks",
	TreeMemReads:            "tree.mem_reads",
	TreeProactiveEvictions:  "tree.proactive_evictions",
	TreeRdReqs:              "tree.rd_reqs",
	TreeReentries:           "tree.reentries",
	TreeReplicas:            "tree.replicas",
	TreeReplyReverts:        "tree.reply_reverts",
	TreeServeRaces:          "tree.serve_races",
	TreeSharerServes:        "tree.sharer_serves",
	TreeStaleAcks:           "tree.stale_acks",
	TreeTdMulticasts:        "tree.td_multicasts",
	TreeTeardowns:           "tree.teardowns",
	TreeTeardownsCompleted:  "tree.teardowns_completed",
	TreeUncachedCompletions: "tree.uncached_completions",
	TreeUnlinks:             "tree.unlinks",
	TreeVictimHits:          "tree.victim_hits",
	TreeWrReqs:              "tree.wr_reqs",
	TreeWriteBumps:          "tree.write_bumps",
	MetricTreeHit:           "tree_hit",
	MetricTreeMiss:          "tree_miss",
	MetricTreeBump:          "tree_bump",
	MetricHopsSaved:         "hops_saved",
	MetricDirFwd:            "dir_fwd",
	MetricDirInval:          "dir_inval",
}

func TestCounterNameTable(t *testing.T) {
	if len(pinnedNames) != int(NumCounters) {
		t.Fatalf("%d pinned names for %d counters", len(pinnedNames), NumCounters)
	}
	seen := map[string]bool{}
	var c Counters
	for k := Counter(0); k < NumCounters; k++ {
		n := k.String()
		if n == "" || seen[n] {
			t.Fatalf("counter %d has empty or duplicate name %q", k, n)
		}
		if n != pinnedNames[k] {
			t.Fatalf("counter %d is named %q, want %q", k, n, pinnedNames[k])
		}
		seen[n] = true
		c.Inc(k, int64(k)+1)
	}
	for k := Counter(0); k < NumCounters; k++ {
		if got := c.Get(k.String()); got != int64(k)+1 {
			t.Fatalf("Get(%q) = %d, want %d", k, got, int64(k)+1)
		}
	}
	if c.Get("no.such_counter") != 0 {
		t.Fatal("unknown name should read 0")
	}
	if len(c.Names()) != int(NumCounters) {
		t.Fatalf("Names() has %d entries, want %d", len(c.Names()), NumCounters)
	}
}

func TestRMSSkewUniformIsZero(t *testing.T) {
	if s := RMSSkew([]int64{5, 5, 5, 5}); s != 0 {
		t.Fatalf("uniform skew %v, want 0", s)
	}
}

func TestRMSSkewExtreme(t *testing.T) {
	// All mass in one of four buckets: deviations are 3/4 and three of
	// -1/4; RMS = sqrt((9+1+1+1)/16/4) = sqrt(12/64).
	want := math.Sqrt(12.0 / 64.0)
	if s := RMSSkew([]int64{8, 0, 0, 0}); math.Abs(s-want) > 1e-12 {
		t.Fatalf("skew %v, want %v", s, want)
	}
}

func TestRMSSkewDegenerate(t *testing.T) {
	if RMSSkew(nil) != 0 {
		t.Fatal("nil counts should give 0")
	}
	if RMSSkew([]int64{0, 0}) != 0 {
		t.Fatal("all-zero counts should give 0")
	}
}

func TestRMSSkewMonotoneUnderConcentration(t *testing.T) {
	// Moving mass into fewer buckets must not decrease skew.
	a := RMSSkew([]int64{4, 4, 4, 4})
	b := RMSSkew([]int64{8, 4, 2, 2})
	c := RMSSkew([]int64{14, 1, 1, 0})
	if !(a <= b && b <= c) {
		t.Fatalf("skew not monotone: %v %v %v", a, b, c)
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean([1 2 3]) should be 2")
	}
}

func TestSamplerPercentiles(t *testing.T) {
	var s Sampler
	if s.Percentile(50) != 0 {
		t.Fatal("empty sampler percentile should be 0")
	}
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if s.N() != 100 {
		t.Fatalf("N=%d", s.N())
	}
	cases := map[float64]float64{50: 50, 90: 90, 99: 99, 100: 100, 1: 1, 0: 1}
	for p, want := range cases {
		if got := s.Percentile(p); got != want {
			t.Fatalf("P%v = %v, want %v", p, got, want)
		}
	}
	// Adding after a query re-sorts correctly.
	s.Add(0.5)
	if got := s.Percentile(0); got != 0.5 {
		t.Fatalf("min after re-add = %v", got)
	}
}

func TestSummarizeUniform(t *testing.T) {
	// Uniform 1..1000: every statistic is known exactly (nearest-rank).
	var s Sampler
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	sum := s.Summarize()
	if sum.N != 1000 || sum.Mean != 500.5 {
		t.Fatalf("n/mean = %d/%v, want 1000/500.5", sum.N, sum.Mean)
	}
	if sum.P50 != 500 || sum.P95 != 950 || sum.P99 != 990 {
		t.Fatalf("percentiles %v/%v/%v, want 500/950/990", sum.P50, sum.P95, sum.P99)
	}
}

func TestSummarizeHeavyTail(t *testing.T) {
	// Two-point distribution: 90 samples at 1, 10 at 100. The median sits
	// in the body, the tail percentiles in the spike.
	var s Sampler
	for i := 0; i < 90; i++ {
		s.Add(1)
	}
	for i := 0; i < 10; i++ {
		s.Add(100)
	}
	sum := s.Summarize()
	if sum.P50 != 1 || sum.P95 != 100 || sum.P99 != 100 {
		t.Fatalf("percentiles %v/%v/%v, want 1/100/100", sum.P50, sum.P95, sum.P99)
	}
	if math.Abs(sum.Mean-10.9) > 1e-9 {
		t.Fatalf("mean %v, want 10.9", sum.Mean)
	}
}

func TestSummarizeConstantAndEmpty(t *testing.T) {
	var empty Sampler
	if got := empty.Summarize(); got != (Summary{}) {
		t.Fatalf("empty summary %+v, want zero", got)
	}
	var s Sampler
	for i := 0; i < 7; i++ {
		s.Add(42)
	}
	sum := s.Summarize()
	if sum.Mean != 42 || sum.P50 != 42 || sum.P95 != 42 || sum.P99 != 42 {
		t.Fatalf("constant summary %+v", sum)
	}
	if sum.String() != "n=7 mean=42.0 p50=42 p95=42 p99=42" {
		t.Fatalf("String() = %q", sum.String())
	}
}

func TestSummarizeMatchesPercentileAPI(t *testing.T) {
	// The one-pass summary must agree with the public Percentile calls it
	// replaced, across add/query interleavings that flip the sorted flag.
	err := quick.Check(func(xs, ys []int16) bool {
		if len(xs) == 0 {
			return true
		}
		var s Sampler
		for _, x := range xs {
			s.Add(float64(x))
		}
		_ = s.Summarize() // sorts
		for _, y := range ys {
			s.Add(float64(y)) // invalidates
		}
		sum := s.Summarize()
		return sum.P50 == s.Percentile(50) &&
			sum.P95 == s.Percentile(95) &&
			sum.P99 == s.Percentile(99) &&
			math.Abs(sum.Mean-s.Mean()) < 1e-9
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestSummarizeDoesNotAllocate(t *testing.T) {
	var s Sampler
	for i := 0; i < 4096; i++ {
		s.Add(float64((i * 2654435761) % 10000))
	}
	s.Summarize() // pay the one sort up front
	if allocs := testing.AllocsPerRun(100, func() { s.Summarize() }); allocs != 0 {
		t.Fatalf("Summarize allocated %v times per run, want 0", allocs)
	}
}

func BenchmarkSummarize(b *testing.B) {
	// The per-summary hot path: after the first sort, Summarize must be
	// allocation-free and one walk of the distinct values (run with
	// -benchmem to see 0 allocs/op).
	var s Sampler
	for i := 0; i < 1<<16; i++ {
		s.Add(float64((i * 2654435761) % 100000))
	}
	s.Summarize()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sum := s.Summarize(); sum.N == 0 {
			b.Fatal("empty summary")
		}
	}
}

func BenchmarkSamplerAdd(b *testing.B) {
	// Steady-state Add of a value already seen is a map increment plus a
	// sum update; amortized it must stay well under one allocation per
	// sample.
	b.ReportAllocs()
	var s Sampler
	for i := 0; i < b.N; i++ {
		s.Add(float64(i & 1023))
	}
}

func TestPercentileEdgeCases(t *testing.T) {
	// Table-driven edge cases for the nearest-rank percentile: the empty
	// sampler, a single sample (every percentile is that sample), an
	// all-equal vector, negative values, and the p boundaries (p<=0 clamps
	// to the minimum, p=100 and the tiniest positive p stay in range).
	cases := []struct {
		name string
		vals []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"empty p0", nil, 0, 0},
		{"empty p100", nil, 100, 0},
		{"single p0", []float64{7}, 0, 7},
		{"single p50", []float64{7}, 50, 7},
		{"single p100", []float64{7}, 100, 7},
		{"single tiny p", []float64{7}, 0.001, 7},
		{"two p50", []float64{10, 20}, 50, 10},
		{"two p51", []float64{10, 20}, 51, 20},
		{"all equal p99", []float64{3, 3, 3, 3}, 99, 3},
		{"negative values p0", []float64{-5, -1, 4}, 0, -5},
		{"negative values p100", []float64{-5, -1, 4}, 100, 4},
		{"unsorted input p50", []float64{9, 1, 5}, 50, 5},
		{"p above 100 clamps", []float64{1, 2, 3}, 250, 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var s Sampler
			for _, v := range tc.vals {
				s.Add(v)
			}
			if got := s.Percentile(tc.p); got != tc.want {
				t.Fatalf("Percentile(%v) over %v = %v, want %v", tc.p, tc.vals, got, tc.want)
			}
			sum := s.Summarize()
			for _, v := range []float64{sum.Mean, sum.P50, sum.P95, sum.P99} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("summary has non-finite statistic: %+v", sum)
				}
			}
		})
	}
}

func TestDeadlockShareNaNFreeUnderFaultCounters(t *testing.T) {
	// Fault injection can produce degenerate latency ledgers: accesses that
	// never completed (deadlock cycles charged against a zero base), one
	// empty class, or huge retry-inflated values. The Table 4 metric must
	// stay finite in every combination.
	type rec struct {
		write    bool
		latency  int64
		deadlock int64
	}
	cases := []struct {
		name           string
		recs           []rec
		wantR, wantW   float64
		exactR, exactW bool
	}{
		{name: "all empty", wantR: 0, wantW: 0, exactR: true, exactW: true},
		{
			// Deadlock cycles with no completed access of that class:
			// share is defined as 0, not Inf/NaN.
			name:  "deadlock without base latency",
			recs:  []rec{{write: false, latency: 0, deadlock: 40}},
			wantR: 0, exactR: true, wantW: 0, exactW: true,
		},
		{
			name:  "reads only",
			recs:  []rec{{write: false, latency: 200, deadlock: 50}},
			wantR: 25, exactR: true, wantW: 0, exactW: true,
		},
		{
			name:  "writes only",
			recs:  []rec{{write: true, latency: 1000, deadlock: 10}},
			wantR: 0, exactR: true, wantW: 1, exactW: true,
		},
		{
			name: "retry-inflated tail",
			recs: []rec{
				{write: false, latency: 1 << 40, deadlock: 1 << 39},
				{write: true, latency: 3, deadlock: 1 << 41},
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			var l LatencyStats
			for _, r := range tc.recs {
				if r.latency > 0 {
					l.Record(r.write, r.latency)
				}
				if r.deadlock > 0 {
					l.RecordDeadlock(r.write, r.deadlock)
				}
			}
			rp, wp := l.DeadlockShare()
			if math.IsNaN(rp) || math.IsInf(rp, 0) || math.IsNaN(wp) || math.IsInf(wp, 0) {
				t.Fatalf("non-finite deadlock share: read %v write %v", rp, wp)
			}
			if tc.exactR && rp != tc.wantR {
				t.Fatalf("read share %v, want %v", rp, tc.wantR)
			}
			if tc.exactW && wp != tc.wantW {
				t.Fatalf("write share %v, want %v", wp, tc.wantW)
			}
		})
	}
}

func TestSamplerPercentileMonotoneProperty(t *testing.T) {
	err := quick.Check(func(xs []int16) bool {
		if len(xs) == 0 {
			return true
		}
		var s Sampler
		for _, x := range xs {
			s.Add(float64(x))
		}
		return s.Percentile(25) <= s.Percentile(50) &&
			s.Percentile(50) <= s.Percentile(75) &&
			s.Percentile(75) <= s.Percentile(100)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

// percentileRefs are the percentiles the differential tests query: the
// nearest-rank boundaries (p <= 0, the smallest positive p, 100) and the
// three a Summary reports.
var percentileRefs = []float64{0, math.SmallestNonzeroFloat64, 1e-9, 1, 50, 95, 99, 100}

// checkMatchesSort compares a Sampler fed vals against the nearest-rank
// definition: every sample kept in a slice, sorted, and read at its
// nearest rank, with the mean summed in sample order.
func checkMatchesSort(t *testing.T, vals []float64) {
	t.Helper()
	var s Sampler
	sum := 0.0
	for i, v := range vals {
		s.Add(v)
		sum += v
		if i == len(vals)/2 {
			s.Summarize() // sort mid-stream; later Adds must re-sort
		}
	}
	ref := slices.Clone(vals)
	slices.Sort(ref)
	at := func(p float64) float64 {
		if len(ref) == 0 {
			return 0
		}
		if p <= 0 {
			return ref[0]
		}
		rank := int(math.Ceil(p / 100 * float64(len(ref))))
		return ref[min(max(rank, 1), len(ref))-1]
	}
	same := func(a, b float64) bool { return a == b || (math.IsNaN(a) && math.IsNaN(b)) }
	for _, p := range percentileRefs {
		if got, want := s.Percentile(p), at(p); !same(got, want) {
			t.Fatalf("Percentile(%v) over %d samples = %v, want %v", p, len(vals), got, want)
		}
	}
	want := Summary{}
	if len(vals) > 0 {
		want = Summary{N: int64(len(vals)), Mean: sum / float64(len(vals)), P50: at(50), P95: at(95), P99: at(99)}
	}
	got := s.Summarize()
	if got.N != want.N || !same(got.Mean, want.Mean) || !same(got.P50, want.P50) ||
		!same(got.P95, want.P95) || !same(got.P99, want.P99) {
		t.Fatalf("Summarize over %d samples = %+v, want %+v", len(vals), got, want)
	}
	if s.N() != len(vals) || !same(s.Mean(), want.Mean) {
		t.Fatalf("N/Mean = %d/%v, want %d/%v", s.N(), s.Mean(), len(vals), want.Mean)
	}
}

func TestSamplerMatchesSort(t *testing.T) {
	cases := map[string][]float64{
		"empty":             nil,
		"single":            {7},
		"two":               {20, 10},
		"all duplicates":    {3, 3, 3, 3, 3},
		"duplicate runs":    {5, 1, 5, 1, 9, 5, 1, 1, 9, 5},
		"negative and zero": {-4, 0, -4, 2, 0, 0},
		"fractions":         {0.5, 0.25, 0.5, 1e-300, 0.25},
	}
	// Latency-like: 5,000 draws over 40 distinct cycle counts, skewed
	// toward the low ones as miss latencies are.
	rng := uint64(12345)
	var lat []float64
	for i := 0; i < 5000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		r := int(rng>>33) % 40
		lat = append(lat, float64(20+r*r/8))
	}
	cases["latency-like"] = lat
	for name, vals := range cases {
		t.Run(name, func(t *testing.T) { checkMatchesSort(t, vals) })
	}
}

// FuzzSamplerMatchesSort runs checkMatchesSort on fuzzed sample streams.
// Each input byte pair is one sample, so short inputs repeat values; a
// leading 0xff byte switches to raw 8-byte floats (NaN, infinities and
// signed zeros included).
func FuzzSamplerMatchesSort(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 7})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 2})
	f.Add([]byte{1, 200, 0, 3, 1, 200, 9, 9, 0, 3, 0, 3})
	f.Add(append([]byte{0xff}, []byte("\x00\x00\x00\x00\x00\x00\xf8\x7f\x00\x00\x00\x00\x00\x00\x00\x80")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		var vals []float64
		if len(data) > 0 && data[0] == 0xff {
			for b := data[1:]; len(b) >= 8; b = b[8:] {
				vals = append(vals, math.Float64frombits(binary.LittleEndian.Uint64(b)))
			}
		} else {
			for b := data; len(b) >= 2; b = b[2:] {
				vals = append(vals, float64(binary.LittleEndian.Uint16(b)))
			}
		}
		checkMatchesSort(t, vals)
	})
}

// A Sampler's memory follows its distinct values, not its samples:
// 200,000 samples over 500 values retain a few tens of kilobytes, where a
// vector of every sample would hold 1.6 MB.
func TestSamplerMemoryFollowsDistinctValues(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := &Sampler{}
	for i := 0; i < 200000; i++ {
		s.Add(float64(100 + (i*7919)%500))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if sum := s.Summarize(); sum.N != 200000 || sum.P50 != 349 {
		t.Fatalf("summary %+v, want n=200000 p50=349", sum)
	}
	runtime.KeepAlive(s)
	if retained > 64<<10 {
		t.Fatalf("200,000 samples of 500 values retain %d bytes, want at most %d", retained, 64<<10)
	}
}
