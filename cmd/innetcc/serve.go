package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"innetcc/internal/serve"
)

// serveFlags carries the server- and client-mode flag values out of main.
type serveFlags struct {
	addr    string // -serve: listen address, server mode when non-empty
	dataDir string // -serve-data
	tenants string // -tenants quota spec
	workers int    // -serve-workers

	client   string // -client: server URL, client mode when non-empty
	tenant   string // -tenant
	priority int    // -priority
	submit   bool   // -submit
	profile  string // -profile
	engine   string // -engine
	watch    string // -watch <id> (or "" plus -submit to watch the new job)
	status   string // -status <id>
	result   string // -result <id>
	cancel   string // -cancel <id>
	stats    bool   // -stats
}

// runServe starts the persistent job server and blocks until SIGTERM or
// SIGINT, then drains: running simulations stop at their next segment
// boundary and are requeued on disk, so the next start reruns them from
// their specs, skipping attempts that already failed.
func runServe(w io.Writer, sf serveFlags) error {
	tenants, err := serve.ParseTenants(sf.tenants)
	if err != nil {
		return err
	}
	srv, err := serve.New(serve.Options{
		DataDir:      sf.dataDir,
		Workers:      sf.workers,
		Tenants:      tenants,
		DefaultQuota: serve.Quota{MaxRunning: 2, MaxQueued: 64},
	})
	if err != nil {
		return err
	}
	hs := &http.Server{Addr: sf.addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errCh := make(chan error, 1)
	go func() {
		fmt.Fprintf(w, "serve: listening on %s (data: %s)\n", sf.addr, sf.dataDir)
		errCh <- hs.ListenAndServe()
	}()
	select {
	case err := <-errCh:
		srv.Drain()
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(w, "serve: signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	hs.Shutdown(shutCtx)
	srv.Drain()
	fmt.Fprintln(w, "serve: drained (interrupted jobs requeued to rerun on restart)")
	return nil
}

// runClient performs one client operation against a running server.
func runClient(w io.Writer, sf serveFlags, accesses int, seed uint64, faults string, retries int, metrics bool, topology string, multicast bool) error {
	c := &serve.Client{Base: sf.client, Tenant: sf.tenant}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	switch {
	case sf.submit:
		if accesses <= 0 {
			accesses = 200
		}
		rec, err := c.Submit(ctx, serve.SubmitRequest{
			Tenant:    sf.tenant,
			Priority:  sf.priority,
			Profile:   sf.profile,
			Engine:    sf.engine,
			Accesses:  accesses,
			SuiteSeed: seed,
			Faults:    faults,
			Retries:   retries,
			Metrics:   metrics,
			Topology:  topology,
			Multicast: multicast,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "submitted %s (%s, tenant %s, priority %d)\n", rec.ID, rec.Hash[:12], rec.Tenant, rec.Priority)
		if sf.watch == "" {
			return nil
		}
		return watchJob(ctx, w, c, rec.ID)
	case sf.watch != "":
		return watchJob(ctx, w, c, sf.watch)
	case sf.status != "":
		rec, err := c.Job(ctx, sf.status)
		if err != nil {
			return err
		}
		return printJSON(w, rec)
	case sf.result != "":
		res, err := c.Result(ctx, sf.result)
		if err != nil {
			return err
		}
		return printJSON(w, res)
	case sf.cancel != "":
		if err := c.Cancel(ctx, sf.cancel); err != nil {
			return err
		}
		fmt.Fprintf(w, "canceling %s\n", sf.cancel)
		return nil
	case sf.stats:
		st, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		return printJSON(w, st)
	default:
		if err := c.Health(ctx); err != nil {
			return err
		}
		fmt.Fprintln(w, "server is healthy")
		return nil
	}
}

// watchJob follows the job's progress stream to a terminal state, then
// prints the result.
func watchJob(ctx context.Context, w io.Writer, c *serve.Client, id string) error {
	final, err := c.Watch(ctx, id, func(ev serve.Event) {
		switch {
		case ev.Type == "progress" && ev.Progress != nil:
			fmt.Fprintf(w, "  cycle %d (attempt %d)\n", ev.Progress.Cycle, ev.Progress.Attempt+1)
		case ev.Type == "state" && ev.Record != nil:
			fmt.Fprintf(w, "  state: %s\n", ev.Record.State)
		}
	})
	if err != nil {
		return err
	}
	if !final.Terminal() {
		return fmt.Errorf("stream ended with job %s still %s (server draining?)", id, final.State)
	}
	if final.State != serve.StateDone {
		return errors.New("job " + id + " " + final.State + ": " + final.Error)
	}
	res, err := c.Result(ctx, id)
	if err != nil {
		return err
	}
	return printJSON(w, res)
}

func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// defaultServeData is the server's persistence root when -serve-data is
// not given.
func defaultServeData() string {
	if d, err := os.Getwd(); err == nil {
		return d + "/.innetcc-serve"
	}
	return ".innetcc-serve"
}
