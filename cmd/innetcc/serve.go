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
	workers int    // -serve-workers

	client  string // -client: server URL, client mode when non-empty
	submit  bool   // -submit
	profile string // -profile
	engine  string // -engine
	watch   string // -watch <id> (or "" plus -submit to watch the new job)
	status  string // -status <id>
	result  string // -result <id>
	cancel  string // -cancel <id>
	stats   bool   // -stats
}

// runServe starts the persistent job server and blocks until SIGTERM or
// SIGINT, then drains: running simulations stop at their next segment
// boundary and are requeued on disk, so the next start reruns them from
// their specs, skipping attempts that already failed.
func runServe(w io.Writer, sf serveFlags) error {
	srv, err := serve.New(serve.Options{DataDir: sf.dataDir, Workers: sf.workers})
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
	c := &serve.Client{Base: sf.client}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	switch {
	case sf.submit:
		if accesses <= 0 {
			accesses = 200
		}
		rec, err := c.Submit(ctx, serve.SubmitRequest{
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
		fmt.Fprintf(w, "submitted %s (%s)\n", rec.ID, rec.Hash[:12])
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

// watchJob polls the job's record to a terminal state, printing each
// state change and each new cycle or attempt of a running job, then prints
// the result.
func watchJob(ctx context.Context, w io.Writer, c *serve.Client, id string) error {
	state := ""
	final, err := c.Watch(ctx, id, func(rec serve.JobRecord) {
		if rec.State != state {
			state = rec.State
			fmt.Fprintf(w, "  state: %s\n", rec.State)
		} else {
			fmt.Fprintf(w, "  cycle %d (attempt %d)\n", rec.Cycle, rec.Attempt+1)
		}
	})
	if err != nil {
		return err
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
