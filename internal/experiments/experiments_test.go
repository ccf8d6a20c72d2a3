package experiments

import (
	"reflect"
	"strings"
	"testing"
)

// smallOpts keeps unit-test runtime modest; bench targets use the default
// sizes.
func smallOpts() Options {
	return Options{AccessesPerNode: 200, AccessesPerNode64: 60, Seed: 42}
}

func TestHopCountStudyShape(t *testing.T) {
	rs, err := HopCountStudy(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 8 {
		t.Fatalf("%d benchmarks, want 8", len(rs))
	}
	var avgR, avgW float64
	for _, r := range rs {
		if r.ReadPct < 0 || r.ReadPct > 60 || r.WritePct < 0 || r.WritePct > 60 {
			t.Errorf("%s: hop reductions out of range: %.1f/%.1f", r.Bench, r.ReadPct, r.WritePct)
		}
		avgR += r.ReadPct
		avgW += r.WritePct
	}
	avgR /= 8
	avgW /= 8
	// Paper averages: 19.7% reads, 17.3% writes. Same regime expected.
	if avgR < 5 || avgW < 5 {
		t.Errorf("average hop reductions too small: %.1f/%.1f", avgR, avgW)
	}
	t.Logf("hop study: reads %.1f%%, writes %.1f%% (paper 19.7/17.3)", avgR, avgW)
}

func TestFigure5Shape(t *testing.T) {
	rs, err := Figure5(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 9 || rs[8].Bench != "avg" {
		t.Fatalf("want 8 benchmarks + avg, got %d", len(rs))
	}
	avg := rs[8]
	// Core claims: the in-network protocol wins on average for both
	// classes, and writes win by more than reads.
	if avg.ReadReduction() <= 0 {
		t.Errorf("average read reduction %.1f%% not positive", avg.ReadReduction())
	}
	if avg.WriteReduction() <= 5 {
		t.Errorf("average write reduction %.1f%% too small", avg.WriteReduction())
	}
	if avg.WriteReduction() <= avg.ReadReduction() {
		t.Errorf("write reduction (%.1f%%) should exceed read reduction (%.1f%%)",
			avg.WriteReduction(), avg.ReadReduction())
	}
	t.Logf("Figure 5 avg: reads %.1f%%, writes %.1f%% (paper 27.1/41.2)",
		avg.ReadReduction(), avg.WriteReduction())
}

func TestFigure6Shape(t *testing.T) {
	pts, err := Figure6(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Average normalized read latency at the smallest cache must exceed
	// the unbounded reference; writes must stay comparatively flat.
	var smallR, smallW float64
	n := 0
	for _, p := range pts {
		if p.Value == Figure6Sizes[len(Figure6Sizes)-1] {
			smallR += p.Read
			smallW += p.Write
			n++
		}
	}
	smallR /= float64(n)
	smallW /= float64(n)
	if smallR <= 1.02 {
		t.Errorf("smallest tree cache read latency %.3f not above reference", smallR)
	}
	if smallW > smallR {
		t.Errorf("write latency (%.3f) more size-sensitive than reads (%.3f)", smallW, smallR)
	}
	t.Logf("Figure 6: 512-entry normalized read %.2f, write %.2f", smallR, smallW)
}

func TestFigure7Shape(t *testing.T) {
	pts, err := Figure7(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Direct-mapped must be worse than 4-way on average for reads.
	avg := map[int]float64{}
	cnt := map[int]int{}
	for _, p := range pts {
		avg[p.Value] += p.Read
		cnt[p.Value]++
	}
	for k := range avg {
		avg[k] /= float64(cnt[k])
	}
	if avg[1] <= avg[4] {
		t.Errorf("direct-mapped (%.3f) should be worse than 4-way (%.3f)", avg[1], avg[4])
	}
	t.Logf("Figure 7 normalized reads: 1-way %.3f, 2-way %.3f, 4-way %.3f, 8-way 1.0-ref %.3f",
		avg[1], avg[2], avg[4], avg[8])
}

func TestFigure8Shape(t *testing.T) {
	pts, err := Figure8(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Gains at 128 KB must be smaller than at 2 MB on average (victim
	// room shrinks).
	var big, small float64
	var nb, ns int
	for _, p := range pts {
		switch p.L2 {
		case Figure8L2[0]:
			big += p.ReadRed
			nb++
		case Figure8L2[len(Figure8L2)-1]:
			small += p.ReadRed
			ns++
		}
	}
	big /= float64(nb)
	small /= float64(ns)
	if small >= big+2 {
		t.Errorf("read gains at small L2 (%.1f%%) should not exceed large L2 (%.1f%%)", small, big)
	}
	t.Logf("Figure 8 avg read reduction: 2MB %.1f%%, 128KB %.1f%%", big, small)
}

func TestFigure9Shape(t *testing.T) {
	rs, err := Figure9(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	avg := rs[len(rs)-1]
	if avg.WriteReduction() <= 0 {
		t.Errorf("64-node write reduction %.1f%% not positive", avg.WriteReduction())
	}
	t.Logf("Figure 9 avg: reads %.1f%%, writes %.1f%% (paper 35/48)",
		avg.ReadReduction(), avg.WriteReduction())
}

func TestTable4Shape(t *testing.T) {
	rows, err := Table4(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		// Deadlock recovery must stay a small share of latency (the
		// paper reports ~0.2%; our direct-mapped caches conflict more
		// at synthetic-trace occupancy, so allow up to 10%).
		if r.ReadPct > 10 || r.WritePct > 10 {
			t.Errorf("%s: deadlock share too large: %.2f%%/%.2f%%", r.Bench, r.ReadPct, r.WritePct)
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	rs, err := Figure10(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	avg := rs[len(rs)-1]
	if avg.ReadReduction() <= 0 || avg.WriteReduction() <= 0 {
		t.Errorf("in-network must beat above-network: %.1f%%/%.1f%%",
			avg.ReadReduction(), avg.WriteReduction())
	}
	t.Logf("Figure 10 avg: reads %.1f%%, writes %.1f%% (paper 31/49.1)",
		avg.ReadReduction(), avg.WriteReduction())
}

func TestFigure11Shape(t *testing.T) {
	pts, err := Figure11(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Average reduction at depth 5 must exceed depth 1 (shallower
	// pipelines shrink the advantage).
	avg := map[int]float64{}
	cnt := map[int]int{}
	for _, p := range pts {
		avg[p.Pipeline] += p.Red
		cnt[p.Pipeline]++
	}
	for k := range avg {
		avg[k] /= float64(cnt[k])
	}
	if avg[5] <= avg[1] {
		t.Errorf("deep-pipeline advantage (%.1f%%) should exceed shallow (%.1f%%)", avg[5], avg[1])
	}
	t.Logf("Figure 11 avg reduction: depth5 %.1f%%, depth3 %.1f%%, depth1 %.1f%%",
		avg[5], avg[3], avg[1])
}

func TestStorageStudyMatchesPaper(t *testing.T) {
	rows := StorageStudy()
	if len(rows) != 2 {
		t.Fatal("want 16- and 64-node rows")
	}
	if rows[0].TreeOverhead < 50 || rows[0].TreeOverhead > 60 {
		t.Errorf("16-node overhead %.0f%%, paper says +56%%", rows[0].TreeOverhead)
	}
	if rows[1].TreeOverhead > -50 || rows[1].TreeOverhead < -65 {
		t.Errorf("64-node overhead %.0f%%, paper says -58%%", rows[1].TreeOverhead)
	}
}

func TestPrintersProduceOutput(t *testing.T) {
	var b strings.Builder
	PrintTable3(&b)
	PrintStorage(&b, StorageStudy())
	if !strings.Contains(b.String(), "Table 3") || !strings.Contains(b.String(), "3.6") {
		t.Fatal("printers missing headings")
	}
}

// Figure 5 must produce identical rows at every pool parallelism: seeds
// derive from the suite seed and results collect in submission order.
func TestFigure5ParallelMatchesSerial(t *testing.T) {
	opt := Options{AccessesPerNode: 100, AccessesPerNode64: 40, Seed: 42}
	opt.Jobs = 1
	serial, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Jobs = 4
	parallel, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel Figure 5 diverged from serial:\n serial: %+v\n parallel: %+v", serial, parallel)
	}
}

// A cached re-run must reproduce the uncached rows exactly.
func TestHopCountStudyCacheRoundTrip(t *testing.T) {
	opt := Options{AccessesPerNode: 100, AccessesPerNode64: 40, Seed: 42, CacheDir: t.TempDir()}
	cold, err := HopCountStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := HopCountStudy(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatalf("cached rows diverged:\n cold: %+v\n warm: %+v", cold, warm)
	}
}

func TestUnusableCacheDirIsAnError(t *testing.T) {
	opt := smallOpts()
	opt.CacheDir = "/dev/null/not-a-dir"
	if _, err := HopCountStudy(opt); err == nil {
		t.Fatal("unusable cache dir accepted")
	}
}

// A failed simulation fails only its row: the average skips it and the
// printers render the error in place of numbers.
func TestFailedRowsAreIsolatedInAveragesAndPrinters(t *testing.T) {
	rows := []PairResult{
		{Bench: "fft", BaseRead: 100, BaseWrite: 100, TreeRead: 50, TreeWrite: 50},
		{Bench: "bar", Err: "tree: stuck after 10 cycles"},
		{Bench: "wsp", BaseRead: 200, BaseWrite: 200, TreeRead: 100, TreeWrite: 100},
	}
	avg := averagePair(rows)
	if avg.BaseRead != 150 || avg.TreeRead != 75 {
		t.Errorf("average did not skip the failed row: %+v", avg)
	}
	var b strings.Builder
	PrintPairs(&b, "t", append(rows, avg), "")
	out := b.String()
	if !strings.Contains(out, "bar    FAILED: tree: stuck after 10 cycles") {
		t.Errorf("failed row not rendered:\n%s", out)
	}
	if !strings.Contains(out, "avg") || strings.Count(out, "FAILED") != 1 {
		t.Errorf("healthy rows disturbed:\n%s", out)
	}

	b.Reset()
	PrintSweep(&b, "t", []SweepPoint{{Bench: "fft", Value: 512, Err: "boom"}}, "entries")
	if !strings.Contains(b.String(), "FAILED: boom") {
		t.Errorf("sweep failure not rendered: %s", b.String())
	}
	b.Reset()
	PrintTable4(&b, []Table4Row{{Bench: "fft", Err: "boom"}, {Bench: "lu", ReadPct: 1, WritePct: 1}})
	if !strings.Contains(b.String(), "FAILED: boom") || !strings.Contains(b.String(), "avg") {
		t.Errorf("table4 failure handling wrong: %s", b.String())
	}
}

func TestAblationsShape(t *testing.T) {
	rows, err := Ablations(smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d ablation rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Name == "victim caching off" && r.ReadDelta < 2 {
			t.Errorf("victim caching off should cost reads under pressure, got %+.1f%%", r.ReadDelta)
		}
	}
	t.Logf("ablations: %+v", rows)
}

// A corrupt plan at the default request scope corrupts only packets the
// protocol can reissue, so every Figure 5 row must complete: corrupting a
// reply, ack or teardown is what scope=all is for.
func TestFigure5CorruptPlanCompletesAtDefaultScope(t *testing.T) {
	opt := Options{AccessesPerNode: 60, AccessesPerNode64: 40, Seed: 42, Jobs: 2,
		Faults: "corrupt=2000,stall=20000,stalllen=8,timeout=200000,retries=6,backoff=64,probe=2000"}
	rs, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Err != "" {
			t.Errorf("%s: %s", r.Bench, r.Err)
		}
	}
}

// When every simulation fails, the avg row has nothing to average: it must
// carry an error and print as a failed row, not as a measured row of
// zeros. A fault plan naming a link the fabric does not have fails every
// job at build time.
func TestAllRowsFailedAverageIsFailed(t *testing.T) {
	opt := Options{AccessesPerNode: 20, AccessesPerNode64: 20, Seed: 42, Jobs: 2,
		Faults: "drop=1000000,link=99:7,timeout=2000"}
	rs, err := Figure5(opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if r.Err == "" {
			t.Errorf("%s: row measured under a plan no job can build: %+v", r.Bench, r)
		}
	}
	if avg := rs[len(rs)-1]; avg.Bench != "avg" || avg.Err != noneMeasured {
		t.Fatalf("avg row = %+v, want Err %q", avg, noneMeasured)
	}
	var b strings.Builder
	PrintPairs(&b, "t", rs, "")
	if out := b.String(); !strings.Contains(out, "avg    FAILED: "+noneMeasured) || strings.Contains(out, "0.0%") {
		t.Errorf("avg row printed as measured:\n%s", out)
	}
	b.Reset()
	PrintTable4(&b, []Table4Row{{Bench: "fft", Err: "boom"}})
	if !strings.Contains(b.String(), "avg    FAILED: "+noneMeasured) {
		t.Errorf("table4 avg row printed as measured:\n%s", b.String())
	}
	b.Reset()
	PrintHopStudy(&b, []HopResult{{Bench: "fft", Err: "boom"}})
	if !strings.Contains(b.String(), "avg    FAILED: "+noneMeasured) {
		t.Errorf("hop-study avg row printed as measured:\n%s", b.String())
	}
}
