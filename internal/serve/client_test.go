package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientErrorSplit pins the typed-error contract the client's retry
// policy depends on: a server that answers with an error yields *APIError
// (not unreachable); a server that cannot be reached yields an
// ErrUnreachable-wrapped error (not an API error).
func TestClientErrorSplit(t *testing.T) {
	_, ts := sseServer(t)
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
	if StatusOf(err) != http.StatusNotFound {
		t.Fatalf("StatusOf = %d, want 404", StatusOf(err))
	}

	dead := &Client{Base: "http://127.0.0.1:1", Timeout: 2 * time.Second}
	err = dead.Health(ctx)
	if err == nil {
		t.Fatalf("health against a dead address succeeded")
	}
	if !Unreachable(err) {
		t.Fatalf("dead-address error = %v, want ErrUnreachable", err)
	}
	if StatusOf(err) != 0 {
		t.Fatalf("transport error carries HTTP status %d", StatusOf(err))
	}
}

// TestClientRetriesTransient: transport failures and 503s are retried with
// backoff until the server recovers; a definitive 404 is never retried.
func TestClientRetriesTransient(t *testing.T) {
	ctx := testCtx(t)
	var calls atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status":"ok"}`))
	}))
	defer flaky.Close()

	c := &Client{Base: flaky.URL, Retries: 3, RetryBase: time.Millisecond}
	if err := c.Health(ctx); err != nil {
		t.Fatalf("health did not recover over retries: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 failures + success)", got)
	}

	var notFound atomic.Int64
	strict := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		notFound.Add(1)
		w.WriteHeader(http.StatusNotFound)
	}))
	defer strict.Close()
	c2 := &Client{Base: strict.URL, Retries: 5, RetryBase: time.Millisecond}
	if err := c2.Health(ctx); StatusOf(err) != http.StatusNotFound {
		t.Fatalf("err = %v, want 404", err)
	}
	if got := notFound.Load(); got != 1 {
		t.Fatalf("definitive 404 was retried (%d calls)", got)
	}
}

// TestWatchReconnectsMidStream is the dropped-stream regression test: the
// connection carrying a job's SSE stream is killed mid-run; the watch must
// reconnect with Last-Event-ID and still deliver the terminal state
// instead of silently ending.
func TestWatchReconnectsMidStream(t *testing.T) {
	srv, ts := sseServer(t)
	ctx := testCtx(t)
	c := &Client{Base: ts.URL, RetryBase: 5 * time.Millisecond}

	rec, err := srv.Submit(SubmitRequest{Tenant: "t", Profile: "lu", Engine: "tree", Accesses: 4000})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	var events atomic.Int64
	killed := make(chan struct{})
	watchDone := make(chan error, 1)
	var final JobRecord
	go func() {
		f, err := c.Watch(ctx, rec.ID, func(Event) { events.Add(1) })
		final = f
		watchDone <- err
	}()

	// Once the stream is demonstrably live, cut every client connection.
	waitFor(t, "first events", func() bool { return events.Load() >= 1 })
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
}

// TestSubscribeAfterReplaysMissedEvents pins the server half of stream
// resumption: a subscriber reconnecting with the ID it last saw receives
// every retained event after it — including the terminal state of a job
// that finished while the subscriber was away.
func TestSubscribeAfterReplaysMissedEvents(t *testing.T) {
	srv, _ := sseServer(t)
	ctx := testCtx(t)

	rec, err := srv.Submit(SubmitRequest{Tenant: "t", Profile: "fft", Engine: "dir", Accesses: 200})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if _, err := srv.Wait(ctx, rec.ID); err != nil {
		t.Fatalf("wait: %v", err)
	}

	// Reconnect claiming to have seen nothing after event 0: the replay
	// must end in the terminal record.
	ch, unsub, err := srv.SubscribeAfter(rec.ID, 0)
	if err != nil {
		t.Fatalf("subscribe after: %v", err)
	}
	defer unsub()
	var last Event
	for ev := range ch {
		if ev.ID <= 0 {
			t.Errorf("replayed event without a positive ID: %+v", ev)
		}
		last = ev
	}
	if last.Type != "state" || last.Record == nil || !last.Record.Terminal() {
		t.Fatalf("replay ended with %+v, want terminal state event", last)
	}
}

// TestKillLeavesCrashState: Kill must leave the store as a crash would —
// record still "running", no terminal transition — and a restart over the
// same directory completes the job from its periodic checkpoints.
func TestKillLeavesCrashState(t *testing.T) {
	dir := t.TempDir()
	ctx := testCtx(t)
	req := SubmitRequest{Tenant: "t", Profile: "bar", Engine: "dir", Accesses: 1200}

	srv1, err := New(Options{
		DataDir:         dir,
		Workers:         1,
		DefaultQuota:    Quota{MaxRunning: 1},
		SegmentCycles:   256,
		CheckpointEvery: 1024,
	})
	if err != nil {
		t.Fatalf("new server 1: %v", err)
	}
	rec, err := srv1.Submit(req)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitFor(t, "job running with a checkpoint", func() bool {
		r, err := srv1.Job(rec.ID)
		if err != nil || r.State != StateRunning {
			return false
		}
		return (&store{dir: dir}).loadSnapshot(&rec) != nil
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
			if r.State != StateRunning {
				t.Fatalf("killed server left record %q, want running (crash state)", r.State)
			}
		}
	}
	if !found {
		t.Fatalf("record vanished after kill")
	}

	srv2, err := New(Options{
		DataDir:       dir,
		Workers:       1,
		DefaultQuota:  Quota{MaxRunning: 1},
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
