package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"innetcc/internal/exec"
	"innetcc/internal/trace"
)

func testCtx(t testing.TB) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// httpServer builds a one-worker server with fine-grained segments (so
// cancellation and progress land quickly) behind an httptest server.
func httpServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(Options{
		DataDir:       t.TempDir(),
		Workers:       1,
		SegmentCycles: 128,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	t.Cleanup(srv.Drain)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func directResult(t *testing.T, req SubmitRequest) exec.Result {
	t.Helper()
	job, err := req.BuildJob()
	if err != nil {
		t.Fatalf("build job: %v", err)
	}
	return exec.RunJob(job, exec.RunOptions{})
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestServerEndToEnd is the serving acceptance test: eight jobs submitted
// over HTTP to a four-worker server all finish, each watch hands its
// callback the terminal record it returns, every result is byte-identical
// to a direct internal/exec run of the same spec, and the retired
// progress-stream endpoint answers 404.
func TestServerEndToEnd(t *testing.T) {
	srv, err := New(Options{
		DataDir:       t.TempDir(),
		Workers:       4,
		SegmentCycles: 256,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	client := &Client{Base: ts.URL}

	if err := client.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}

	reqs := []SubmitRequest{
		{Profile: "fft", Engine: "dir", Accesses: 40},
		{Profile: "fft", Engine: "tree", Accesses: 40},
		{Profile: "lu", Engine: "dir", Accesses: 40},
		{Profile: "bar", Engine: "tree", Accesses: 40, Metrics: true},
		{Profile: "rad", Engine: "dir", Accesses: 40},
		{Profile: "wns", Engine: "tree", Accesses: 40},
		{Profile: "ocn", Engine: "dir", Accesses: 40},
		{Profile: "ray", Engine: "tree", Accesses: 40},
	}
	ids := make([]string, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		rec, err := client.Submit(ctx, req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if rec.State != StateQueued || rec.ID == "" || rec.Hash == "" {
			t.Fatalf("submit %d: bad record %+v", i, rec)
		}
		ids[i] = rec.ID
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			var seen JobRecord
			final, err := client.Watch(ctx, id, func(rec JobRecord) { seen = rec })
			if err != nil {
				t.Errorf("watch %s: %v", id, err)
				return
			}
			if final.State != StateDone {
				t.Errorf("job %s finished %s: %s", id, final.State, final.Error)
			}
			if seen.State != final.State || seen.FinishedAt != final.FinishedAt {
				t.Errorf("watch %s: callback last saw a %s record, want the terminal %s one", id, seen.State, final.State)
			}
		}(rec.ID)
	}

	wg.Wait()

	// Every result must be byte-identical to a direct exec run.
	for i, req := range reqs {
		got, err := client.Result(ctx, ids[i])
		if err != nil {
			t.Fatalf("result %d: %v", i, err)
		}
		want := directResult(t, req)
		if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
			t.Errorf("job %d result differs from direct run\n server: %s\n direct: %s", i, g, w)
		}
	}

	st, err := client.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Done != len(reqs) {
		t.Errorf("stats.Done = %d, want %d", st.Done, len(reqs))
	}
	if st.Queued != 0 || st.Running != 0 {
		t.Errorf("stats not drained: %+v", st)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + ids[0] + "/events")
	if err != nil {
		t.Fatalf("get events: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/jobs/{id}/events answered %d, want 404", resp.StatusCode)
	}
}

// TestRepeatSweepServedFromCache: the shared result cache serves a repeat
// of a whole sweep. After one 8-profile x 2-engine sweep at 60
// accesses/node, a second identical sweep simulates nothing: every record
// is Cached, the cache's miss count stays at the first sweep's 16, and
// every result is byte-identical to the first sweep's.
func TestRepeatSweepServedFromCache(t *testing.T) {
	srv, err := New(Options{DataDir: t.TempDir(), Workers: 4})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ctx := testCtx(t)
	sweep := func() []JobRecord {
		t.Helper()
		var ids []string
		for _, p := range trace.Benchmarks() {
			for _, engine := range []string{"dir", "tree"} {
				rec, err := srv.Submit(SubmitRequest{Profile: p.Name, Engine: engine, Accesses: 60})
				if err != nil {
					t.Fatalf("submit %s/%s: %v", p.Name, engine, err)
				}
				ids = append(ids, rec.ID)
			}
		}
		recs := make([]JobRecord, len(ids))
		for i, id := range ids {
			rec, err := srv.Wait(ctx, id)
			if err != nil || rec.State != StateDone {
				t.Fatalf("wait %s: %v %+v", id, err, rec)
			}
			recs[i] = rec
		}
		return recs
	}

	cold := sweep()
	if misses := srv.Stats().CacheMisses; misses != 16 || len(cold) != 16 {
		t.Fatalf("cold sweep of %d jobs missed the cache %d times, want 16 of 16", len(cold), misses)
	}
	warm := sweep()
	if misses := srv.Stats().CacheMisses; misses != 16 {
		t.Errorf("cache misses after the repeat sweep = %d, want 16", misses)
	}
	for i := range warm {
		if !warm[i].Cached {
			t.Errorf("repeat job %s (%s) simulated instead of hitting the cache", warm[i].ID, warm[i].Job.Key)
		}
		first, err := srv.Result(cold[i].ID)
		if err != nil {
			t.Fatalf("result %s: %v", cold[i].ID, err)
		}
		again, err := srv.Result(warm[i].ID)
		if err != nil {
			t.Fatalf("result %s: %v", warm[i].ID, err)
		}
		if g, w := mustJSON(t, again), mustJSON(t, first); g != w {
			t.Errorf("repeat %s result differs from the first sweep's\n repeat: %s\n first:  %s", warm[i].Job.Key, g, w)
		}
	}
}

// TestWorkersBoundConcurrency: Workers alone bounds concurrency. With no
// other option set, three distinct jobs on three workers all run at once.
func TestWorkersBoundConcurrency(t *testing.T) {
	srv, err := New(Options{DataDir: t.TempDir(), Workers: 3})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ctx := testCtx(t)

	var ids []string
	for _, p := range []string{"fft", "lu", "bar"} {
		rec, err := srv.Submit(SubmitRequest{Profile: p, Engine: "tree", Accesses: 8000})
		if err != nil {
			t.Fatalf("submit %s: %v", p, err)
		}
		ids = append(ids, rec.ID)
	}
	waitFor(t, "three jobs running at once", func() bool { return srv.Stats().Running == 3 })
	for _, id := range ids {
		if rec, err := srv.Wait(ctx, id); err != nil || rec.State != StateDone {
			t.Fatalf("wait %s: %v %+v", id, err, rec)
		}
	}
}

// TestQueueFullRejects: once maxPending jobs are pending, a further
// submission is rejected over HTTP with 429 and Retry-After, whatever
// retired "tenant" key it carries.
func TestQueueFullRejects(t *testing.T) {
	srv, err := New(Options{DataDir: t.TempDir(), Workers: 1, SegmentCycles: 256})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	client := &Client{Base: ts.URL}

	// One long spec, so no job finishes and frees a slot while the queue
	// fills: the first runs, the rest wait behind it.
	long := SubmitRequest{Profile: "fft", Engine: "dir", Accesses: 200000}
	for i := 0; i < maxPending; i++ {
		if _, err := client.Submit(ctx, long); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for _, body := range []string{
		`{"profile":"lu","engine":"tree","accesses":40}`,
		`{"tenant":"someone-new","profile":"lu","engine":"tree","accesses":40}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
			t.Errorf("submission %s over a full queue: status %d, Retry-After %q; want 429 with Retry-After",
				body, resp.StatusCode, resp.Header.Get("Retry-After"))
		}
	}
	if st := srv.Stats(); st.Queued+st.Running != maxPending {
		t.Fatalf("%d jobs pending, want %d", st.Queued+st.Running, maxPending)
	}
}

// TestFIFOScheduling: with one worker and a long-running blocker, jobs
// queued behind it start in submission order.
func TestFIFOScheduling(t *testing.T) {
	srv, err := New(Options{
		DataDir:       t.TempDir(),
		Workers:       1,
		SegmentCycles: 256,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ctx := testCtx(t)

	blocker, err := srv.Submit(SubmitRequest{Profile: "fft", Engine: "dir", Accesses: 2000})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	waitFor(t, "the blocker to occupy the only worker", func() bool {
		rec, err := srv.Job(blocker.ID)
		return err == nil && rec.State != StateQueued
	})

	ids := []string{blocker.ID}
	for _, p := range []string{"wsp", "lu", "ray", "bar", "ocn"} {
		rec, err := srv.Submit(SubmitRequest{Profile: p, Engine: "tree", Accesses: 40})
		if err != nil {
			t.Fatalf("submit %s: %v", p, err)
		}
		ids = append(ids, rec.ID)
	}
	var starts []int64
	for _, id := range ids {
		rec, err := srv.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if rec.State != StateDone {
			t.Fatalf("job %s finished %s: %s", id, rec.State, rec.Error)
		}
		starts = append(starts, rec.StartSeq)
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Fatalf("jobs did not start in submission order: start sequence %v", starts)
		}
	}
}

// TestDuplicateSpecSimulatesOnce: two submissions of the identical spec
// get one simulation; the second result comes from the shared cache and
// both are byte-identical.
func TestDuplicateSpecSimulatesOnce(t *testing.T) {
	srv, err := New(Options{
		DataDir: t.TempDir(),
		Workers: 2,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ctx := testCtx(t)

	req := SubmitRequest{Profile: "bar", Engine: "dir", Accesses: 60}
	a, err := srv.Submit(SubmitRequest{Profile: req.Profile, Engine: req.Engine, Accesses: req.Accesses})
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := srv.Submit(SubmitRequest{Profile: req.Profile, Engine: req.Engine, Accesses: req.Accesses})
	if err != nil {
		t.Fatalf("submit b: %v", err)
	}
	if a.Hash != b.Hash {
		t.Fatalf("identical specs hash differently: %s vs %s", a.Hash, b.Hash)
	}
	for _, id := range []string{a.ID, b.ID} {
		if rec, err := srv.Wait(ctx, id); err != nil || rec.State != StateDone {
			t.Fatalf("wait %s: %v %+v", id, err, rec)
		}
	}
	ra, err := srv.Result(a.ID)
	if err != nil {
		t.Fatalf("result a: %v", err)
	}
	rb, err := srv.Result(b.ID)
	if err != nil {
		t.Fatalf("result b: %v", err)
	}
	if mustJSON(t, ra) != mustJSON(t, rb) {
		t.Fatalf("duplicate-spec results differ")
	}
	if hits, _ := srv.cache.Stats(); hits < 1 {
		t.Fatalf("second submission did not hit the shared cache (hits=%d)", hits)
	}
}

// TestServerRestartResumesInterruptedJobs is the kill/restart acceptance
// test: a server stopped mid-run (graceful drain, plus a record
// hand-edited back to "running" to simulate a hard crash) must, on
// restart over the same data directory, complete every queued and
// in-flight job — rerunning each from its spec — with results
// byte-identical to direct runs.
func TestServerRestartResumesInterruptedJobs(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)
	reqs := []SubmitRequest{
		{Profile: "fft", Engine: "dir", Accesses: 800},
		{Profile: "bar", Engine: "tree", Accesses: 800},
		{Profile: "ocn", Engine: "dir", Accesses: 800},
	}

	srv1, err := New(Options{
		DataDir:       dir,
		Workers:       2,
		SegmentCycles: 256,
	})
	if err != nil {
		t.Fatalf("new server 1: %v", err)
	}
	ids := make([]string, len(reqs))
	for i, req := range reqs {
		rec, err := srv1.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = rec.ID
	}
	// Let a run get past its first segment, then pull the plug mid-flight.
	waitFor(t, "a job past its first segment", func() bool {
		for _, id := range ids {
			if r, err := srv1.Job(id); err == nil && r.Cycle > 0 {
				return true
			}
		}
		return false
	})
	srv1.Drain()

	// Drain must have requeued everything non-terminal on disk.
	interrupted := 0
	st := srv1.Stats()
	if st.Queued == 0 && st.Done == len(reqs) {
		t.Skipf("all jobs finished before drain; nothing to resume")
	}
	for _, id := range ids {
		b, err := os.ReadFile(filepath.Join(dir, "jobs", id+".json"))
		if err != nil {
			t.Fatalf("read record %s: %v", id, err)
		}
		var rec JobRecord
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatalf("decode record %s: %v", id, err)
		}
		if rec.State == StateRunning {
			t.Fatalf("drained server left %s marked running", id)
		}
		if rec.State == StateQueued {
			interrupted++
		}
	}
	if interrupted == 0 {
		t.Skipf("all jobs finished before drain; nothing to resume")
	}

	// Simulate a hard crash for one record: rewrite it as "running", as a
	// kill -9 would have left it.
	var crashRec JobRecord
	b, _ := os.ReadFile(filepath.Join(dir, "jobs", ids[0]+".json"))
	json.Unmarshal(b, &crashRec)
	if crashRec.State == StateQueued {
		crashRec.State = StateRunning
		nb, _ := json.Marshal(crashRec)
		os.WriteFile(filepath.Join(dir, "jobs", ids[0]+".json"), nb, 0o644)
	}

	srv2, err := New(Options{
		DataDir:       dir,
		Workers:       2,
		SegmentCycles: 256,
	})
	if err != nil {
		t.Fatalf("new server 2: %v", err)
	}
	defer srv2.Drain()
	for i, id := range ids {
		rec, err := srv2.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s after restart: %v", id, err)
		}
		if rec.State != StateDone {
			t.Fatalf("job %s finished %s after restart: %s", id, rec.State, rec.Error)
		}
		got, err := srv2.Result(id)
		if err != nil {
			t.Fatalf("result %s: %v", id, err)
		}
		want := directResult(t, reqs[i])
		if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
			t.Errorf("job %s result differs from direct run after restart\n server: %s\n direct: %s", id, g, w)
		}
	}
}

// TestRestartSkipsFailedAttempts: a requeued record's Attempt is where the
// rerun starts. A queued record of a job whose every attempt fails
// transiently is written at Attempt 1, as a previous server that saw
// attempt 0 fail would leave it. After a restart the job's first progress,
// seen through the server's progress observer, must report attempt 1, and
// its result must still equal a direct run's, which went through attempts
// 0, 1 and 2.
func TestRestartSkipsFailedAttempts(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)
	req := SubmitRequest{Profile: "fft", Engine: "tree", Accesses: 60,
		Faults: "drop=1000000,timeout=1000,retries=0,backoff=16", Retries: 2}
	job, err := req.BuildJob()
	if err != nil {
		t.Fatalf("build job: %v", err)
	}
	st, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	rec := JobRecord{ID: "j-restart", State: StateQueued, Hash: job.Hash(), Attempt: 1, Job: job}
	if err := st.putJob(&rec); err != nil {
		t.Fatalf("write record: %v", err)
	}

	// An all-drop attempt fails within a few cycles, so only one-cycle
	// segments observe its progress. The observer is set before the
	// workers start, so it sees the rerun's first observation.
	srv, err := open(Options{DataDir: dir, Workers: 1, SegmentCycles: 1})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	first := -1
	srv.observe = func(id string, p exec.Progress) {
		if id == rec.ID && first < 0 {
			first = p.Attempt
		}
	}
	srv.start()
	defer srv.Drain()
	final, err := srv.Wait(ctx, rec.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if first != 1 {
		t.Fatalf("first progress after restart reported attempt %d, want 1", first)
	}
	if final.State != StateFailed || final.Attempt != 2 {
		t.Fatalf("restarted job finished %s at attempt %d, want failed at attempt 2", final.State, final.Attempt)
	}
	got, err := srv.Result(rec.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, directResult(t, req)); g != w {
		t.Errorf("restarted result differs from direct run\n server: %s\n direct: %s", g, w)
	}
}

// TestRestartLoadsRetiredRecordFields: a data directory written before
// tenants and priorities were retired holds records that still carry
// "tenant" and "priority" keys. A restart must load such a record, left
// running by a crash, and rerun it to done with the direct-run result.
func TestRestartLoadsRetiredRecordFields(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)
	req := SubmitRequest{Profile: "fft", Engine: "tree", Accesses: 60}
	job, err := req.BuildJob()
	if err != nil {
		t.Fatalf("build job: %v", err)
	}
	st, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	b, err := json.Marshal(JobRecord{ID: "j-old", State: StateRunning, Hash: job.Hash(), Seq: 7, Job: job})
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b = append([]byte(`{"tenant":"alice","priority":5,`), b[1:]...)
	if err := os.WriteFile(st.jobPath("j-old"), b, 0o644); err != nil {
		t.Fatalf("write record: %v", err)
	}

	srv, err := New(Options{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	final, err := srv.Wait(ctx, "j-old")
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("restarted job finished %s: %s", final.State, final.Error)
	}
	got, err := srv.Result("j-old")
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	if g, w := mustJSON(t, got), mustJSON(t, directResult(t, req)); g != w {
		t.Errorf("restarted result differs from direct run\n server: %s\n direct: %s", g, w)
	}
}

// TestTerminalRecordsStayOutOfTheLiveSet: a data directory holding 1,000
// finished records, written as raw JSON, opens with the per-state Stats a
// scan of those records gives. Only pending jobs count against
// maxPending: submission maxPending+1 is rejected, a canceled job frees
// its slot, and dispatch picks the pending jobs in submission order.
func TestTerminalRecordsStayOutOfTheLiveSet(t *testing.T) {
	dir := t.TempDir()
	job, err := SubmitRequest{Profile: "fft", Engine: "tree", Accesses: 60}.BuildJob()
	if err != nil {
		t.Fatalf("build job: %v", err)
	}
	st, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	var want Stats
	for i := 0; i < 1000; i++ {
		rec := JobRecord{ID: fmt.Sprintf("j-old-%04d", i), Hash: job.Hash(), Seq: int64(i), Job: job}
		switch i % 3 {
		case 0:
			rec.State, want.Done = StateDone, want.Done+1
		case 1:
			rec.State, want.Failed = StateFailed, want.Failed+1
		default:
			rec.State, want.Canceled = StateCanceled, want.Canceled+1
		}
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("marshal: %v", err)
		}
		if err := os.WriteFile(st.jobPath(rec.ID), b, 0o644); err != nil {
			t.Fatalf("write record: %v", err)
		}
	}

	// No workers: every submitted job stays queued until picked below.
	srv, err := open(Options{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatalf("open server: %v", err)
	}
	t.Cleanup(srv.Drain)
	if got := srv.Stats(); got != want {
		t.Fatalf("stats over 1,000 terminal records = %+v, want %+v", got, want)
	}
	submit := func(i int) (JobRecord, error) {
		return srv.Submit(SubmitRequest{Profile: "lu", Engine: "tree", Accesses: 40 + i})
	}
	var ids []string
	for i := 0; i < maxPending; i++ {
		rec, err := submit(i)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, rec.ID)
	}
	if _, err := submit(maxPending); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission %d returned %v, want ErrQueueFull", maxPending+1, err)
	}
	if err := srv.Cancel(ids[0]); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	want.Canceled++
	rec, err := submit(maxPending)
	if err != nil {
		t.Fatalf("submission after a cancel freed a slot: %v", err)
	}
	ids = append(ids[1:], rec.ID)
	if _, err := submit(maxPending + 1); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submission over a refilled queue returned %v, want ErrQueueFull", err)
	}
	want.Queued = maxPending
	if got := srv.Stats(); got != want {
		t.Fatalf("stats with a full queue = %+v, want %+v", got, want)
	}

	srv.mu.Lock()
	defer srv.mu.Unlock()
	for i, id := range ids {
		js := srv.pickLocked()
		if js == nil {
			t.Fatalf("pick %d chose nothing, want %s", i, id)
		}
		if js.rec.ID != id {
			t.Fatalf("pick %d chose %s, want %s", i, js.rec.ID, id)
		}
		srv.startLocked(js)
	}
	if js := srv.pickLocked(); js != nil {
		t.Fatalf("pick with every job running chose %s", js.rec.ID)
	}
}

// TestCancelRunningJob: canceling a running job stops it promptly and
// marks it canceled without caching a partial result.
func TestCancelRunningJob(t *testing.T) {
	srv, err := New(Options{
		DataDir:       t.TempDir(),
		Workers:       1,
		SegmentCycles: 256,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ctx := testCtx(t)

	rec, err := srv.Submit(SubmitRequest{Profile: "wsp", Engine: "tree", Accesses: 4000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	for {
		r, _ := srv.Job(rec.ID)
		if r.State == StateRunning {
			break
		}
		if r.Terminal() {
			t.Fatalf("job finished before it could be canceled: %+v", r)
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Cancel(rec.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	final, err := srv.Wait(ctx, rec.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if final.State != StateCanceled {
		t.Fatalf("canceled job finished %s", final.State)
	}
	if _, err := srv.Result(rec.ID); err == nil {
		t.Fatalf("canceled job served a result")
	}
	if _, ok := srv.cache.Get(rec.Hash); ok {
		t.Fatalf("partial result of a canceled job was cached")
	}
}

// TestRetiredShardsFieldAccepted: submissions from older clients may still
// carry retired fields: "shards" from the sharded engine, "snapshot" from
// checkpoint hand-off between hosts, and "tenant" and "priority" from
// multi-user scheduling. The server must accept such a request and return
// the result of the same request without the field.
func TestRetiredShardsFieldAccepted(t *testing.T) {
	ctx := testCtx(t)
	run := func(body string) (JobRecord, exec.Result) {
		t.Helper()
		srv, err := New(Options{DataDir: t.TempDir(), Workers: 1})
		if err != nil {
			t.Fatalf("new server: %v", err)
		}
		defer srv.Drain()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		defer resp.Body.Close()
		var rec JobRecord
		if err := json.NewDecoder(resp.Body).Decode(&rec); err != nil || rec.ID == "" {
			t.Fatalf("submit %s: status %d, record %+v, decode error %v", body, resp.StatusCode, rec, err)
		}
		if rec, err = srv.Wait(ctx, rec.ID); err != nil || rec.State != StateDone {
			t.Fatalf("wait: %v %+v", err, rec)
		}
		res, err := srv.Result(rec.ID)
		if err != nil {
			t.Fatalf("result: %v", err)
		}
		return rec, res
	}
	const base = `"profile":"wsp","engine":"tree","accesses":40`
	withoutRec, without := run(`{` + base + `}`)
	for field, value := range map[string]string{
		"shards":   `2`,
		"snapshot": `"SU5DQ0tQVAE="`,
		"tenant":   `"alice"`,
		"priority": `5`,
	} {
		withRec, with := run(`{` + base + `,"` + field + `":` + value + `}`)
		if withRec.Hash != withoutRec.Hash {
			t.Errorf("job hash %s with the %s field, %s without", withRec.Hash, field, withoutRec.Hash)
		}
		if g, w := mustJSON(t, with), mustJSON(t, without); g != w {
			t.Errorf("result differs with the %s field\n with:    %s\n without: %s", field, g, w)
		}
	}
}
