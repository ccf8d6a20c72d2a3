package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"innetcc/internal/serve"
)

// watchClient starts a one-worker job server behind an httptest server
// and returns a client for it.
func watchClient(t *testing.T) *serve.Client {
	t.Helper()
	srv, err := serve.New(serve.Options{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatalf("new server: %v", err)
	}
	t.Cleanup(srv.Drain)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &serve.Client{Base: ts.URL}
}

// TestWatchJobPrintsResult: -watch of a job that finishes prints the
// state lines, then the job's result JSON, as -result prints it.
func TestWatchJobPrintsResult(t *testing.T) {
	c := watchClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rec, err := c.Submit(ctx, serve.SubmitRequest{Profile: "fft", Engine: "tree", Accesses: 40})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var out bytes.Buffer
	if err := watchJob(ctx, &out, c, rec.ID); err != nil {
		t.Fatalf("watch: %v\n%s", err, out.String())
	}
	res, err := c.Result(ctx, rec.ID)
	if err != nil {
		t.Fatalf("result: %v", err)
	}
	var want bytes.Buffer
	if err := printJSON(&want, res); err != nil {
		t.Fatalf("print result: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "  state: done\n") || !strings.HasSuffix(got, want.String()) {
		t.Fatalf("watch output does not end in the done state and the result JSON:\n%s", got)
	}
}

// TestWatchJobFailedJobErrors: -watch of a job whose every attempt fails
// (its fault plan names a link the fabric lacks) returns an error that
// names the failed state instead of printing a result.
func TestWatchJobFailedJobErrors(t *testing.T) {
	c := watchClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rec, err := c.Submit(ctx, serve.SubmitRequest{Profile: "fft", Engine: "tree", Accesses: 40,
		Faults: "drop=1000000,link=99:7,timeout=2000"})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	var out bytes.Buffer
	err = watchJob(ctx, &out, c, rec.ID)
	if err == nil || !strings.Contains(err.Error(), rec.ID+" "+serve.StateFailed+":") {
		t.Fatalf("watch of a failing job returned %v, want an error naming state %s\n%s", err, serve.StateFailed, out.String())
	}
	if strings.Contains(out.String(), "{") {
		t.Fatalf("watch of a failing job printed a result:\n%s", out.String())
	}
}
