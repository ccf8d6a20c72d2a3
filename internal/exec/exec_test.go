package exec

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

func testJob(bench string, kind protocol.EngineKind, accesses int) Job {
	p, err := trace.ProfileByName(bench)
	if err != nil {
		panic(err)
	}
	return Job{
		Key:       bench + "/" + kind.String(),
		Engine:    kind,
		Config:    protocol.DefaultConfig(),
		Profile:   p,
		Accesses:  accesses,
		SuiteSeed: 42,
	}
}

func testBatch() []Job {
	return []Job{
		testJob("fft", protocol.KindDirectory, 60),
		testJob("fft", protocol.KindTree, 60),
		testJob("bar", protocol.KindDirectory, 60),
		testJob("bar", protocol.KindTree, 60),
		testJob("wsp", protocol.KindTree, 60),
	}
}

func TestDeriveSeedPureAndDistinct(t *testing.T) {
	a := DeriveSeed(42, "fft/16n/400a")
	if a != DeriveSeed(42, "fft/16n/400a") {
		t.Fatal("derivation not a pure function")
	}
	seen := map[uint64]string{42: "suite seed itself"}
	for _, key := range []string{"fft/16n/400a", "fft/16n/401a", "fft/64n/400a", "lu/16n/400a", ""} {
		s := DeriveSeed(42, key)
		if s == 0 {
			t.Errorf("zero seed for key %q", key)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("seed collision: %q and %q", prev, key)
		}
		seen[s] = key
	}
	if DeriveSeed(43, "fft/16n/400a") == a {
		t.Error("suite seed does not influence derivation")
	}
}

func TestJobSeedIgnoresWorkerIrrelevantFields(t *testing.T) {
	dir := testJob("fft", protocol.KindDirectory, 60)
	tree := testJob("fft", protocol.KindTree, 60)
	tree.Key = "another-label"
	tree.Config.TreeEntries = 512 // config knobs must not reseed the trace
	if dir.Seed() != tree.Seed() {
		t.Fatal("paired jobs over the same trace must share a seed")
	}
	other := testJob("bar", protocol.KindDirectory, 60)
	if dir.Seed() == other.Seed() {
		t.Fatal("different benchmarks must not share a seed")
	}
}

func TestHashCoversSpecNotLabel(t *testing.T) {
	a := testJob("fft", protocol.KindTree, 60)
	b := a
	b.Key = "renamed"
	if a.Hash() != b.Hash() {
		t.Error("display label must not change the cache identity")
	}
	c := a
	c.Config.TreeEntries = 512
	d := a
	d.SuiteSeed = 7
	e := a
	e.Engine = protocol.KindDirectory
	for i, other := range []Job{c, d, e} {
		if other.Hash() == a.Hash() {
			t.Errorf("variant %d shares a hash with the original", i)
		}
	}
}

// The batch result must be identical at every parallelism level: same
// values, same order.
func TestRunDeterministicAcrossParallelism(t *testing.T) {
	jobs := testBatch()
	serial := (&Pool{Workers: 1}).Run(jobs)
	parallel := (&Pool{Workers: 8}).Run(jobs)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel run diverged from serial:\n serial: %+v\n parallel: %+v", serial, parallel)
	}
	for i, r := range serial {
		if r.Failed() {
			t.Errorf("job %d (%s) failed: %s", i, r.Key, r.Err)
		}
		if r.Read.N == 0 || r.Write.N == 0 {
			t.Errorf("job %d (%s) recorded no latencies", i, r.Key)
		}
		if r.Read.P50 == 0 || r.Read.P99 < r.Read.P50 {
			t.Errorf("job %d (%s) percentiles inconsistent: p50=%g p99=%g",
				i, r.Key, r.Read.P50, r.Read.P99)
		}
	}
}

// One failing job — bad config, exceeded cycle bound, or a panic inside
// the simulation — must fail only its own row.
func TestFailureIsolation(t *testing.T) {
	bad := testJob("fft", protocol.KindTree, 60)
	bad.Config.TreeEntries = 0 // rejected by Config.Validate
	slow := testJob("bar", protocol.KindTree, 60)
	slow.MaxCycles = 10 // guaranteed to exceed the cycle bound
	panicky := testJob("wsp", protocol.KindTree, 60)
	panicky.Accesses = -1 // panics inside trace generation
	jobs := []Job{testJob("fft", protocol.KindDirectory, 60), bad, slow, panicky, testJob("bar", protocol.KindDirectory, 60)}

	rs := (&Pool{Workers: 4}).Run(jobs)
	if rs[0].Failed() || rs[4].Failed() {
		t.Fatalf("healthy jobs failed: %q / %q", rs[0].Err, rs[4].Err)
	}
	if !rs[1].Failed() {
		t.Error("invalid config job did not fail")
	}
	if !rs[2].Failed() || !strings.Contains(rs[2].Err, "stuck") {
		t.Errorf("cycle-bound job error = %q, want stuck report", rs[2].Err)
	}
	if !rs[3].Failed() || !strings.Contains(rs[3].Err, "panic") {
		t.Errorf("panicking job error = %q, want recovered panic", rs[3].Err)
	}
}

func TestCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	jobs := testBatch()
	cold := (&Pool{Workers: 2, Cache: cache}).Run(jobs)
	if hits, misses := cache.Stats(); hits != 0 || misses != int64(len(jobs)) {
		t.Fatalf("cold run: %d hits, %d misses", hits, misses)
	}

	cache2, err := OpenCache(dir) // fresh handle, as a new process would open
	if err != nil {
		t.Fatal(err)
	}
	warm := (&Pool{Workers: 2, Cache: cache2}).Run(jobs)
	if hits, misses := cache2.Stats(); hits != int64(len(jobs)) || misses != 0 {
		t.Fatalf("warm run: %d hits, %d misses", hits, misses)
	}
	for i := range cold {
		if !warm[i].Cached {
			t.Errorf("job %d not served from cache", i)
		}
		cold[i].Cached, warm[i].Cached = false, false
		if !reflect.DeepEqual(cold[i], warm[i]) {
			t.Errorf("job %d cached result differs:\n cold: %+v\n warm: %+v", i, cold[i], warm[i])
		}
	}
}

func TestCacheSurvivesCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	job := testJob("fft", protocol.KindTree, 40)
	first := (&Pool{Workers: 1, Cache: cache}).Run([]Job{job})
	if err := os.WriteFile(filepath.Join(dir, job.Hash()+".json"), []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	again := (&Pool{Workers: 1, Cache: cache}).Run([]Job{job})
	if again[0].Cached {
		t.Fatal("corrupt entry served as a hit")
	}
	first[0].Cached, again[0].Cached = false, false
	if !reflect.DeepEqual(first[0], again[0]) {
		t.Fatal("recomputed result differs from original")
	}
	// The recompute must have repaired the entry.
	final := (&Pool{Workers: 1, Cache: cache}).Run([]Job{job})
	if !final[0].Cached {
		t.Fatal("repaired entry not served from cache")
	}
}

// Failed jobs are cached too: their failures are as deterministic as any
// other result.
func TestCacheStoresFailures(t *testing.T) {
	cache, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	slow := testJob("fft", protocol.KindTree, 40)
	slow.MaxCycles = 10
	(&Pool{Workers: 1, Cache: cache}).Run([]Job{slow})
	rs := (&Pool{Workers: 1, Cache: cache}).Run([]Job{slow})
	if !rs[0].Cached || !rs[0].Failed() {
		t.Fatalf("cached failure not replayed: cached=%v err=%q", rs[0].Cached, rs[0].Err)
	}
}

// A job whose trace exceeds trace.MaxAccesses fails its row with the size
// error on its first attempt, before any trace is generated.
func TestOversizedTraceFailsBeforeGeneration(t *testing.T) {
	job := testJob("fft", protocol.KindTree, 2_000_000_000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res := RunJob(job, RunOptions{})
	runtime.ReadMemStats(&after)
	want := trace.CheckSize(job.Config.Nodes(), job.Accesses)
	if want == nil || res.Err != want.Error() {
		t.Fatalf("Err = %q, want the size error %v", res.Err, want)
	}
	if res.Transient || res.Attempts != 1 {
		t.Fatalf("transient=%v after %d attempts, want one deterministic failure", res.Transient, res.Attempts)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("refusing the job allocated %d bytes", grew)
	}
}
