package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"innetcc/internal/exec"
)

func testCtx(t testing.TB) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	t.Cleanup(cancel)
	return ctx
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

// TestServerTenantsEndToEnd is the serving acceptance test: three tenants
// with distinct quotas submit concurrently over HTTP; quotas bound each
// tenant's concurrency, over-quota submissions are rejected, progress
// streams deliver events, and every result is byte-identical to a direct
// internal/exec run of the same spec.
func TestServerTenantsEndToEnd(t *testing.T) {
	srv, err := New(Options{
		DataDir: t.TempDir(),
		Workers: 4,
		Tenants: map[string]Quota{
			"alice": {MaxRunning: 1, MaxQueued: 16},
			"bob":   {MaxRunning: 2, MaxQueued: 16},
			"carol": {MaxRunning: 1, MaxQueued: 2},
		},
		DefaultQuota:  Quota{MaxRunning: 1, MaxQueued: 4},
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
		{Tenant: "alice", Profile: "fft", Engine: "dir", Accesses: 40},
		{Tenant: "alice", Profile: "fft", Engine: "tree", Accesses: 40},
		{Tenant: "alice", Profile: "lu", Engine: "dir", Accesses: 40},
		{Tenant: "bob", Profile: "bar", Engine: "tree", Accesses: 40, Metrics: true},
		{Tenant: "bob", Profile: "rad", Engine: "dir", Accesses: 40},
		{Tenant: "bob", Profile: "wns", Engine: "tree", Accesses: 40},
		{Tenant: "carol", Profile: "ocn", Engine: "dir", Accesses: 40, Priority: 3},
		{Tenant: "carol", Profile: "ray", Engine: "tree", Accesses: 40},
	}
	ids := make([]string, len(reqs))
	var wg sync.WaitGroup
	var progressEvents sync.Map
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
			final, err := client.Watch(ctx, id, func(ev Event) {
				if ev.Type == "progress" {
					progressEvents.Store(id, true)
				}
			})
			if err != nil {
				t.Errorf("watch %s: %v", id, err)
				return
			}
			if final.State != StateDone {
				t.Errorf("job %s finished %s: %s", id, final.State, final.Error)
			}
		}(rec.ID)
	}

	wg.Wait()

	anyProgress := false
	progressEvents.Range(func(_, _ any) bool { anyProgress = true; return false })
	if !anyProgress {
		t.Errorf("no progress events streamed")
	}

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
	for name, want := range map[string]int{"alice": 1, "bob": 2, "carol": 1} {
		ts := st.Tenants[name]
		if ts.PeakRunning > want {
			t.Errorf("tenant %s peak running %d exceeds quota %d", name, ts.PeakRunning, want)
		}
		if ts.Queued != 0 || ts.Running != 0 {
			t.Errorf("tenant %s accounting not drained: %+v", name, ts)
		}
	}
}

// TestQuotaMaxQueuedRejects: with the only worker occupied by another
// tenant, a tenant's submissions beyond MaxQueued are rejected over HTTP
// with 429.
func TestQuotaMaxQueuedRejects(t *testing.T) {
	srv, err := New(Options{
		DataDir:      t.TempDir(),
		Workers:      1,
		Tenants:      map[string]Quota{"carol": {MaxRunning: 1, MaxQueued: 2}},
		DefaultQuota: Quota{MaxRunning: 1, MaxQueued: 16},
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	ctx := testCtx(t)
	client := &Client{Base: ts.URL}

	blocker, err := client.Submit(ctx, SubmitRequest{Tenant: "x", Profile: "fft", Engine: "dir", Accesses: 4000})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	for { // occupy the only worker so carol's jobs stay queued
		rec, err := client.Job(ctx, blocker.ID)
		if err != nil {
			t.Fatalf("job: %v", err)
		}
		if rec.State == StateRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 2; i++ {
		if _, err := client.Submit(ctx, SubmitRequest{Tenant: "carol", Profile: "lu", Engine: "tree", Accesses: 40 + i}); err != nil {
			t.Fatalf("in-quota submit %d: %v", i, err)
		}
	}
	_, err = client.Submit(ctx, SubmitRequest{Tenant: "carol", Profile: "wsp", Engine: "dir", Accesses: 40})
	if err == nil {
		t.Fatalf("over-quota submission accepted")
	}
	if !strings.Contains(err.Error(), "quota") || !strings.Contains(err.Error(), "429") {
		t.Fatalf("over-quota submission failed with wrong error: %v", err)
	}
}

// TestPriorityScheduling: with one worker and a long-running blocker, jobs
// queued behind it must start in priority order, not submission order.
func TestPriorityScheduling(t *testing.T) {
	srv, err := New(Options{
		DataDir:       t.TempDir(),
		Workers:       1,
		DefaultQuota:  Quota{MaxRunning: 4},
		SegmentCycles: 256,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ctx := testCtx(t)

	blocker, err := srv.Submit(SubmitRequest{Tenant: "t", Profile: "fft", Engine: "dir", Accesses: 2000})
	if err != nil {
		t.Fatalf("submit blocker: %v", err)
	}
	for { // wait until the blocker occupies the only worker
		rec, err := srv.Job(blocker.ID)
		if err != nil {
			t.Fatalf("job: %v", err)
		}
		if rec.State != StateQueued {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Submitted in ascending priority; must start in descending priority.
	var ids []string
	for _, pri := range []int{1, 5, 9} {
		rec, err := srv.Submit(SubmitRequest{Tenant: "t", Profile: "lu", Engine: "tree",
			Accesses: 40 + pri, Priority: pri})
		if err != nil {
			t.Fatalf("submit p%d: %v", pri, err)
		}
		ids = append(ids, rec.ID)
	}
	var starts []int64
	for _, id := range append([]string{blocker.ID}, ids...) {
		rec, err := srv.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if rec.State != StateDone {
			t.Fatalf("job %s finished %s: %s", id, rec.State, rec.Error)
		}
		starts = append(starts, rec.StartSeq)
	}
	// starts = [blocker, p1, p5, p9]; dispatch order must be
	// blocker < p9 < p5 < p1.
	if !(starts[0] < starts[3] && starts[3] < starts[2] && starts[2] < starts[1]) {
		t.Fatalf("priority order violated: blocker=%d p1=%d p5=%d p9=%d",
			starts[0], starts[1], starts[2], starts[3])
	}
}

// TestDuplicateSpecSimulatesOnce: two tenants submitting the identical
// spec get one simulation; the second result comes from the shared cache
// and both are byte-identical.
func TestDuplicateSpecSimulatesOnce(t *testing.T) {
	srv, err := New(Options{
		DataDir:      t.TempDir(),
		Workers:      2,
		DefaultQuota: Quota{MaxRunning: 2},
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ctx := testCtx(t)

	req := SubmitRequest{Profile: "bar", Engine: "dir", Accesses: 60}
	a, err := srv.Submit(SubmitRequest{Tenant: "a", Profile: req.Profile, Engine: req.Engine, Accesses: req.Accesses})
	if err != nil {
		t.Fatalf("submit a: %v", err)
	}
	b, err := srv.Submit(SubmitRequest{Tenant: "b", Profile: req.Profile, Engine: req.Engine, Accesses: req.Accesses})
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
		{Tenant: "t", Profile: "fft", Engine: "dir", Accesses: 800},
		{Tenant: "t", Profile: "bar", Engine: "tree", Accesses: 800},
		{Tenant: "t", Profile: "ocn", Engine: "dir", Accesses: 800},
	}

	srv1, err := New(Options{
		DataDir:       dir,
		Workers:       2,
		DefaultQuota:  Quota{MaxRunning: 2},
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
		DefaultQuota:  Quota{MaxRunning: 2},
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
// attempt 0 fail would leave it. After a restart the job's first progress
// must report attempt 1, and its result must still equal a direct run's,
// which went through attempts 0, 1 and 2.
func TestRestartSkipsFailedAttempts(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)
	req := SubmitRequest{Tenant: "t", Profile: "fft", Engine: "tree", Accesses: 60,
		Faults: "drop=1000000,timeout=1000,retries=0,backoff=16", Retries: 2}
	job, err := req.BuildJob()
	if err != nil {
		t.Fatalf("build job: %v", err)
	}
	st, err := openStore(dir)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	rec := JobRecord{ID: "j-restart", Tenant: req.Tenant, State: StateQueued, Hash: job.Hash(), Attempt: 1, Job: job}
	if err := st.putJob(&rec); err != nil {
		t.Fatalf("write record: %v", err)
	}

	// An all-drop attempt fails within a few cycles, so only one-cycle
	// segments stream its progress.
	srv, err := New(Options{DataDir: dir, Workers: 1, SegmentCycles: 1})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ch, unsub, err := srv.SubscribeAfter(rec.ID, 0)
	if err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	defer unsub()
	first := -1
	for ev := range ch {
		if ev.Type == "progress" && first < 0 {
			first = ev.Progress.Attempt
		}
	}
	if first != 1 {
		t.Fatalf("first progress after restart reported attempt %d, want 1", first)
	}
	final, err := srv.Wait(ctx, rec.ID)
	if err != nil {
		t.Fatalf("wait: %v", err)
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

// TestCancelRunningJob: canceling a running job stops it promptly and
// marks it canceled without caching a partial result.
func TestCancelRunningJob(t *testing.T) {
	srv, err := New(Options{
		DataDir:       t.TempDir(),
		Workers:       1,
		DefaultQuota:  Quota{MaxRunning: 1},
		SegmentCycles: 256,
	})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	ctx := testCtx(t)

	rec, err := srv.Submit(SubmitRequest{Tenant: "t", Profile: "wsp", Engine: "tree", Accesses: 4000})
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

func TestParseTenants(t *testing.T) {
	q, err := ParseTenants("alice=2:8, bob=1")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !reflect.DeepEqual(q, map[string]Quota{
		"alice": {MaxRunning: 2, MaxQueued: 8},
		"bob":   {MaxRunning: 1},
	}) {
		t.Fatalf("parsed %+v", q)
	}
	for _, bad := range []string{"noequals", "x=", "x=a", "x=1:b"} {
		if _, err := ParseTenants(bad); err == nil {
			t.Errorf("ParseTenants(%q) accepted", bad)
		}
	}
}

// TestRetiredShardsFieldAccepted: submissions from older clients may still
// carry retired fields: "shards" from the sharded engine, and "snapshot"
// from checkpoint hand-off between hosts. The server must accept such a
// request and return the result of the same request without the field.
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
