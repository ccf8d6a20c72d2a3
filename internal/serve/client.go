package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"innetcc/internal/exec"
)

// APIError is a definitive answer from the server: the request arrived,
// was processed, and was refused (or failed) with an HTTP status. It is
// distinct from transport-level failures (wrapped in ErrUnreachable): a
// watch retries a server it could not reach, but not one that answered
// with a final rejection.
type APIError struct {
	Status int    // HTTP status code
	Msg    string // server's error message (may be empty)
}

func (e *APIError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("serve: %s (HTTP %d)", e.Msg, e.Status)
	}
	return fmt.Sprintf("serve: HTTP %d", e.Status)
}

// ErrUnreachable tags transport-level failures: connection refused, reset,
// DNS, timeout — anything where no HTTP response was decoded. Test with
// Unreachable(err).
var ErrUnreachable = errors.New("serve: server unreachable")

// Unreachable reports whether err is a transport-level failure (the server
// never answered) rather than a definitive server response.
func Unreachable(err error) bool { return errors.Is(err, ErrUnreachable) }

// Watch reads the job record every watchPoll. It retries an unreachable
// server up to watchRetries times in a row, waiting watchBackoff before the
// first retry and doubling the wait before each further one.
const (
	watchPoll    = 50 * time.Millisecond
	watchRetries = 3
	watchBackoff = 50 * time.Millisecond
)

// Client talks to a running server's HTTP API over http.DefaultClient.
// Each call is bounded only by its context.
type Client struct {
	// Base is the server URL, e.g. "http://localhost:8080".
	Base string
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// do issues a request and decodes the JSON response into out (skipped when
// out is nil). Non-2xx responses surface as *APIError; transport failures
// are wrapped in ErrUnreachable.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return fmt.Errorf("%w: %s %s: %v", ErrUnreachable, method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		ae := &APIError{Status: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error != "" {
			ae.Msg = fmt.Sprintf("%s %s: %s", method, path, e.Error)
		} else {
			ae.Msg = fmt.Sprintf("%s %s", method, path)
		}
		return ae
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		// A torn response body (connection cut mid-payload) is a transport
		// failure, not a server verdict.
		return fmt.Errorf("%w: %s %s: decoding response: %v", ErrUnreachable, method, path, err)
	}
	return nil
}

// Submit enqueues a job and returns its record.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (JobRecord, error) {
	var rec JobRecord
	err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &rec)
	return rec, err
}

// Job fetches one job record.
func (c *Client) Job(ctx context.Context, id string) (JobRecord, error) {
	var rec JobRecord
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &rec)
	return rec, err
}

// Jobs lists job records in submission order.
func (c *Client) Jobs(ctx context.Context) ([]JobRecord, error) {
	var recs []JobRecord
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &recs)
	return recs, err
}

// Result fetches a finished job's result payload.
func (c *Client) Result(ctx context.Context, id string) (exec.Result, error) {
	var res exec.Result
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil, &res)
	return res, err
}

// Cancel requests cancellation of a queued or running job.
func (c *Client) Cancel(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodPost, "/v1/jobs/"+id+"/cancel", nil, nil)
}

// Stats fetches the server accounting snapshot.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var st Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// Health probes the liveness endpoint.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// Watch polls the job's record every watchPoll until the job reaches a
// terminal state, and returns that record. fn, when non-nil, sees every
// polled record whose state, cycle or attempt differs from the previous
// one it saw, the terminal record included. A definitive server answer
// (*APIError, such as 404 for an unknown ID) ends the watch at once; an
// ErrUnreachable failure is retried on the watchRetries budget.
func (c *Client) Watch(ctx context.Context, id string, fn func(JobRecord)) (JobRecord, error) {
	var seen JobRecord
	failures := 0
	for {
		rec, err := c.Job(ctx, id)
		wait := watchPoll
		switch {
		case err == nil:
			failures = 0
			if rec.State != seen.State || rec.Cycle != seen.Cycle || rec.Attempt != seen.Attempt {
				seen = rec
				if fn != nil {
					fn(rec)
				}
			}
			if rec.Terminal() {
				return rec, nil
			}
		case ctx.Err() != nil:
			return JobRecord{}, ctx.Err()
		case !Unreachable(err) || failures == watchRetries:
			return JobRecord{}, err
		default:
			wait = watchBackoff << failures
			failures++
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return JobRecord{}, ctx.Err()
		}
	}
}
