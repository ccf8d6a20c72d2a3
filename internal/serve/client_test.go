package serve

import (
	"context"
	"errors"
	"net/http"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientErrorSplit pins the typed-error contract Watch's reconnect
// depends on: a server that answers with an error yields *APIError (not
// unreachable); a server that cannot be reached yields an
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

// TestWatchReconnectsMidStream is the dropped-stream regression test: the
// connection carrying a job's SSE stream is killed mid-run; the watch must
// reconnect with Last-Event-ID and still deliver the terminal state
// instead of silently ending.
func TestWatchReconnectsMidStream(t *testing.T) {
	srv, ts := sseServer(t)
	ctx := testCtx(t)
	c := &Client{Base: ts.URL}

	rec, err := srv.Submit(SubmitRequest{Profile: "lu", Engine: "tree", Accesses: 4000})
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

	rec, err := srv.Submit(SubmitRequest{Profile: "fft", Engine: "dir", Accesses: 200})
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
