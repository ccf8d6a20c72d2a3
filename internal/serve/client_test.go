package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientErrorSplit pins the typed-error contract Watch's retries
// depend on: a server that answers with an error yields *APIError (not
// unreachable); a server that cannot be reached yields an
// ErrUnreachable-wrapped error (not an API error).
func TestClientErrorSplit(t *testing.T) {
	_, ts := httpServer(t)
	ctx := testCtx(t)

	c := &Client{Base: ts.URL}
	_, err := c.Job(ctx, "no-such-job")
	if err == nil {
		t.Fatalf("unknown job fetch succeeded")
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("unknown job error = %v, want *APIError 404", err)
	}
	if Unreachable(err) {
		t.Fatalf("definitive 404 classified as unreachable: %v", err)
	}

	deadCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	dead := &Client{Base: "http://127.0.0.1:1"}
	err = dead.Health(deadCtx)
	if err == nil {
		t.Fatalf("health against a dead address succeeded")
	}
	if !Unreachable(err) {
		t.Fatalf("dead-address error = %v, want ErrUnreachable", err)
	}
	if errors.As(err, &ae) {
		t.Fatalf("transport error carries HTTP status %d", ae.Status)
	}
}

// TestWatchSurvivesDroppedConnections: every client connection is cut
// while a watch follows a running job, and the next two requests are
// dropped without an answer, so at least one poll fails as unreachable.
// The watch must retry and still return the done record. A second watch
// of the finished job returns its terminal record at once, handing it to
// the callback exactly once.
func TestWatchSurvivesDroppedConnections(t *testing.T) {
	srv, _ := httpServer(t)
	var drops atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if drops.Add(-1) >= 0 {
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	ctx := testCtx(t)
	c := &Client{Base: ts.URL}

	rec, err := srv.Submit(SubmitRequest{Profile: "lu", Engine: "tree", Accesses: 4000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var records atomic.Int64
	killed := make(chan struct{})
	watchDone := make(chan error, 1)
	var final JobRecord
	go func() {
		f, err := c.Watch(ctx, rec.ID, func(JobRecord) { records.Add(1) })
		final = f
		watchDone <- err
	}()

	// Once the watch has seen a record, cut every client connection and
	// drop the next two requests.
	waitFor(t, "first record", func() bool { return records.Load() >= 1 })
	drops.Store(2)
	ts.CloseClientConnections()
	close(killed)

	if err := <-watchDone; err != nil {
		t.Fatalf("watch after connection kill: %v", err)
	}
	select {
	case <-killed:
	default:
		t.Fatalf("test bug: watch finished before the connection was killed")
	}
	if final.State != StateDone {
		t.Fatalf("final state = %s (%s), want done", final.State, final.Error)
	}
	if drops.Load() >= 0 {
		t.Fatalf("the watch made no request after the connections were cut")
	}

	var seen []JobRecord
	again, err := c.Watch(ctx, rec.ID, func(r JobRecord) { seen = append(seen, r) })
	if err != nil {
		t.Fatalf("watch of the finished job: %v", err)
	}
	if len(seen) != 1 || seen[0].State != StateDone || again.FinishedAt != final.FinishedAt {
		t.Fatalf("watch of the finished job saw %d records and returned %s, want one done record", len(seen), again.State)
	}
}

// TestWatchRetriesOnlyUnreachable: a watch of a server that cannot be
// reached gives up with an ErrUnreachable error once its retry budget is
// spent, within a few seconds; a watch of an ID the server does not know
// returns its 404 *APIError after one request, without retrying.
func TestWatchRetriesOnlyUnreachable(t *testing.T) {
	ctx := testCtx(t)
	start := time.Now()
	_, err := (&Client{Base: "http://127.0.0.1:1"}).Watch(ctx, "j-any", nil)
	if !Unreachable(err) {
		t.Fatalf("watch of a dead address returned %v, want ErrUnreachable", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("watch of a dead address gave up after %v, want a few seconds at most", d)
	}

	srv, _ := httpServer(t)
	var requests atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		requests.Add(1)
		srv.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	_, err = (&Client{Base: ts.URL}).Watch(ctx, "no-such-job", nil)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusNotFound {
		t.Fatalf("watch of an unknown job returned %v, want *APIError 404", err)
	}
	if n := requests.Load(); n != 1 {
		t.Fatalf("watch of an unknown job made %d requests, want 1", n)
	}
}

// TestSSECancelMidStreamDeliversTerminalEvent (named when watches were
// event streams): a watch attached to a running job that is then canceled
// sees the running record first, hands the canceled record to its callback
// last, and returns it.
func TestSSECancelMidStreamDeliversTerminalEvent(t *testing.T) {
	srv, ts := httpServer(t)
	ctx := testCtx(t)
	c := &Client{Base: ts.URL}

	// Large enough that the job cannot finish before the cancel below lands
	// (the run never completes — it is canceled — so size costs nothing).
	rec, err := srv.Submit(SubmitRequest{Profile: "lu", Engine: "tree", Accesses: 200000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, "job running", func() bool {
		r, err := srv.Job(rec.ID)
		return err == nil && r.State == StateRunning
	})

	var mu sync.Mutex
	var seen []JobRecord
	watchDone := make(chan error, 1)
	var final JobRecord
	go func() {
		f, err := c.Watch(ctx, rec.ID, func(r JobRecord) {
			mu.Lock()
			seen = append(seen, r)
			mu.Unlock()
		})
		final = f
		watchDone <- err
	}()
	waitFor(t, "watch attached", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) >= 1
	})

	if err := srv.Cancel(rec.ID); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	if err := <-watchDone; err != nil {
		t.Fatalf("watch of a canceled job: %v", err)
	}
	if final.State != StateCanceled {
		t.Fatalf("watch returned state %s, want %s", final.State, StateCanceled)
	}
	if first := seen[0]; first.State != StateRunning {
		t.Fatalf("first record seen = %s, want %s (watch attached mid-run)", first.State, StateRunning)
	}
	if last := seen[len(seen)-1]; last.State != StateCanceled || !last.Terminal() {
		t.Fatalf("last record seen = %s, want terminal %s", last.State, StateCanceled)
	}
}

// TestSSENoGoroutineLeak (named when watches were event streams) runs
// submit/watch cycles that end two ways and requires the goroutine count to
// settle back to its baseline. Half the cycles abandon the watch mid-run,
// and the job still finishes done; the other half cancel the running job,
// and the watch returns the canceled record.
func TestSSENoGoroutineLeak(t *testing.T) {
	srv, ts := httpServer(t)
	ctx := testCtx(t)
	c := &Client{Base: ts.URL}
	base := runtime.NumGoroutine()

	for i := 0; i < 4; i++ {
		if i%2 == 0 {
			// A seed of its own per cycle, so the cache cannot serve it.
			rec, err := srv.Submit(SubmitRequest{Profile: "lu", Engine: "tree", Accesses: 4000, SuiteSeed: uint64(i + 1)})
			if err != nil {
				t.Fatalf("submit: %v", err)
			}
			watchCtx, cancelWatch := context.WithCancel(ctx)
			var records atomic.Int64
			watchDone := make(chan error, 1)
			go func() {
				_, err := c.Watch(watchCtx, rec.ID, func(JobRecord) { records.Add(1) })
				watchDone <- err
			}()
			waitFor(t, "first record", func() bool { return records.Load() >= 1 })
			cancelWatch()
			if err := <-watchDone; !errors.Is(err, context.Canceled) {
				t.Fatalf("abandoned watch returned %v, want context.Canceled", err)
			}
			if final, err := srv.Wait(ctx, rec.ID); err != nil || final.State != StateDone {
				t.Fatalf("job under an abandoned watch: %v %+v", err, final)
			}
			continue
		}
		// Large enough that the job cannot finish before the cancel lands.
		rec, err := srv.Submit(SubmitRequest{Profile: "lu", Engine: "tree", Accesses: 20000})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		waitFor(t, "job running", func() bool {
			r, err := srv.Job(rec.ID)
			return err == nil && r.State == StateRunning
		})
		if err := srv.Cancel(rec.ID); err != nil {
			t.Fatalf("cancel: %v", err)
		}
		final, err := c.Watch(ctx, rec.ID, nil)
		if err != nil || final.State != StateCanceled {
			t.Fatalf("watch of a canceled job: %v, state %s, want %s", err, final.State, StateCanceled)
		}
	}

	// Goroutine accounting: allow scheduler noise to drain, then require
	// the count back at (or below) baseline plus idle-connection slack.
	waitFor(t, "goroutines to settle", func() bool {
		runtime.GC()
		http.DefaultClient.CloseIdleConnections()
		return runtime.NumGoroutine() <= base+2
	})
}

// TestKillLeavesCrashState: Kill must leave the store as a crash would —
// record still "running", no terminal transition — with the attempt the
// job had reached already persisted, and a restart over the same directory
// reruns the job from its spec, at that attempt, to the direct-run result.
// At suite seed 16 the job's attempt 0 drops a packet with no retry budget
// and fails transiently; attempt 1 runs clean for ~100k cycles.
func TestKillLeavesCrashState(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)
	req := SubmitRequest{Profile: "bar", Engine: "dir", Accesses: 2000, SuiteSeed: 16,
		Faults: "drop=10,timeout=1000,retries=0,backoff=16", Retries: 1}

	srv1, err := New(Options{
		DataDir:       dir,
		Workers:       1,
		SegmentCycles: 256,
	})
	if err != nil {
		t.Fatalf("new server 1: %v", err)
	}
	rec, err := srv1.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, "attempt 1 running past its first segment", func() bool {
		r, err := srv1.Job(rec.ID)
		return err == nil && r.State == StateRunning && r.Attempt == 1 && r.Cycle > 0
	})
	srv1.Kill()

	recs, err := (&store{dir: dir}).loadJobs()
	if err != nil {
		t.Fatalf("load records: %v", err)
	}
	found := false
	for _, r := range recs {
		if r.ID == rec.ID {
			found = true
			if r.State != StateRunning || r.Attempt != 1 {
				t.Fatalf("killed server left record %q at attempt %d, want running at attempt 1 (crash state)",
					r.State, r.Attempt)
			}
		}
	}
	if !found {
		t.Fatalf("record vanished after kill")
	}

	srv2, err := New(Options{
		DataDir:       dir,
		Workers:       1,
		SegmentCycles: 256,
	})
	if err != nil {
		t.Fatalf("new server 2: %v", err)
	}
	defer srv2.Drain()
	final, err := srv2.Wait(ctx, rec.ID)
	if err != nil {
		t.Fatalf("wait after restart: %v", err)
	}
	if final.State != StateDone {
		t.Fatalf("restarted job finished %s: %s", final.State, final.Error)
	}
	got, err := srv2.Result(rec.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	want := directResult(t, req)
	if g, w := mustJSON(t, got), mustJSON(t, want); g != w {
		t.Errorf("post-crash result differs from direct run")
	}
}
