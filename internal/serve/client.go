package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"time"

	"innetcc/internal/exec"
)

// APIError is a definitive answer from the server: the request arrived,
// was processed, and was refused (or failed) with an HTTP status. It is
// distinct from transport-level failures (wrapped in ErrUnreachable): the
// client retries a server it could not reach, but not one that answered
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

// StatusOf returns the HTTP status of a definitive server response, or 0
// for nil and transport errors.
func StatusOf(err error) int {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Status
	}
	return 0
}

// retryableStatus reports whether a definitive response is worth retrying:
// the server is alive but momentarily unable (overload backpressure or a
// bad gateway in front of it). 4xx rejections other than 429 are final.
func retryableStatus(code int) bool {
	switch code {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// Client talks to a running server's HTTP API. The zero HTTP field uses
// http.DefaultClient. The zero value of every knob preserves the original
// behavior: no per-request timeout, no retries.
type Client struct {
	// Base is the server URL, e.g. "http://localhost:8080".
	Base string
	// Tenant, when non-empty, is stamped onto submissions that omit one.
	Tenant string
	// HTTP overrides the transport.
	HTTP *http.Client

	// Timeout bounds each individual HTTP attempt (0 = none beyond the
	// caller's context). The caller's context still bounds the whole
	// operation including retries.
	Timeout time.Duration

	// Retries is how many times a failed request is reissued after
	// transport errors and retryable statuses (429/502/503/504), with
	// exponential backoff and jitter between attempts. Note that retrying
	// a submission whose response was lost can create a duplicate job
	// record; duplicates share a content hash, so the server's dedupe and
	// result cache make the second record cheap.
	Retries int

	// RetryBase is the first backoff delay (50ms when 0); each subsequent
	// attempt doubles it, capped at 2s, with ±25% jitter.
	RetryBase time.Duration
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) url(path string) string {
	return strings.TrimRight(c.Base, "/") + path
}

// backoff returns the pause before retry attempt (1-based): exponential
// from RetryBase, capped, with ±25% jitter so a fleet of clients retrying
// against one recovering server does not stampede in lockstep.
func (c *Client) backoff(attempt int) time.Duration {
	base := c.RetryBase
	if base <= 0 {
		base = 50 * time.Millisecond
	}
	d := base << (attempt - 1)
	if max := 2 * time.Second; d > max {
		d = max
	}
	jitter := 0.75 + 0.5*rand.Float64()
	return time.Duration(float64(d) * jitter)
}

// do issues a request and decodes the JSON response into out (skipped when
// out is nil), retrying transport failures and retryable statuses per the
// client's knobs. Non-2xx responses surface as *APIError; transport
// failures are wrapped in ErrUnreachable.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		payload = b
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = c.doOnce(ctx, method, path, payload, out)
		if err == nil || attempt >= c.Retries {
			return err
		}
		if !Unreachable(err) && !retryableStatus(StatusOf(err)) {
			return err // definitive rejection: retrying cannot change it
		}
		select {
		case <-time.After(c.backoff(attempt + 1)):
		case <-ctx.Done():
			return err
		}
	}
}

// doOnce is a single HTTP attempt.
func (c *Client) doOnce(ctx context.Context, method, path string, payload []byte, out any) error {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.url(path), rd)
	if err != nil {
		return err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
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
	if req.Tenant == "" {
		req.Tenant = c.Tenant
	}
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

// Jobs lists job records, optionally filtered by tenant.
func (c *Client) Jobs(ctx context.Context, tenant string) ([]JobRecord, error) {
	path := "/v1/jobs"
	if tenant != "" {
		path += "?tenant=" + tenant
	}
	var recs []JobRecord
	err := c.do(ctx, http.MethodGet, path, nil, &recs)
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

// Watch consumes the job's server-sent events stream, invoking fn for each
// event, until the job reaches a terminal state (returning its final
// record) or ctx is canceled. fn may be nil. A dropped stream reconnects
// with the standard Last-Event-ID header, so a momentary network blip or a
// proxy cutting the connection resumes the stream (the server replays
// missed events) instead of silently ending the watch; reconnection gives
// up only when the server definitively rejects the stream or the retry
// budget (Retries, minimum 3 for streams) is exhausted without progress.
func (c *Client) Watch(ctx context.Context, id string, fn func(Event)) (JobRecord, error) {
	lastID := int64(-1)
	budget := c.Retries
	if budget < 3 {
		budget = 3
	}
	failures := 0
	for {
		last, newLastID, err := c.watchOnce(ctx, id, lastID, fn)
		if newLastID > lastID {
			lastID = newLastID
			failures = 0 // the stream made progress: reset the budget
		}
		if last != nil && last.Terminal() {
			return *last, nil
		}
		if ctx.Err() != nil {
			return JobRecord{}, ctx.Err()
		}
		if err != nil && !Unreachable(err) {
			return JobRecord{}, err // definitive rejection (404, ...)
		}
		// Stream ended without a terminal event: either the connection was
		// cut (err != nil) or the server closed it early (drain). Check
		// the record once — the job may have finished while we were blind.
		rec, recErr := c.Job(ctx, id)
		if recErr == nil && rec.Terminal() {
			return rec, nil
		}
		failures++
		if failures > budget {
			if err == nil {
				err = fmt.Errorf("serve: watch %s: stream ended %d times without a terminal event", id, failures)
			}
			return JobRecord{}, err
		}
		select {
		case <-time.After(c.backoff(failures)):
		case <-ctx.Done():
			return JobRecord{}, ctx.Err()
		}
	}
}

// watchOnce runs one SSE connection. It returns the last state record seen
// (nil if none), the last event ID seen (-1 if none), and the transport
// error that ended the stream (nil on server-side close).
func (c *Client) watchOnce(ctx context.Context, id string, after int64, fn func(Event)) (*JobRecord, int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.url("/v1/jobs/"+id+"/events"), nil)
	if err != nil {
		return nil, after, err
	}
	if after >= 0 {
		req.Header.Set("Last-Event-ID", strconv.FormatInt(after, 10))
	}
	resp, err := c.http().Do(req)
	if err != nil {
		return nil, after, fmt.Errorf("%w: events %s: %v", ErrUnreachable, id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, after, &APIError{Status: resp.StatusCode, Msg: "GET /v1/jobs/" + id + "/events"}
	}
	var last *JobRecord
	lastID := after
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if idv, ok := strings.CutPrefix(line, "id: "); ok {
			if n, err := strconv.ParseInt(idv, 10, 64); err == nil {
				lastID = n
			}
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			continue
		}
		if ev.ID > lastID {
			lastID = ev.ID
		}
		if fn != nil {
			fn(ev)
		}
		if ev.Type == "state" && ev.Record != nil {
			last = ev.Record
			if last.Terminal() {
				return last, lastID, nil
			}
		}
	}
	if err := sc.Err(); err != nil {
		return last, lastID, fmt.Errorf("%w: events %s: %v", ErrUnreachable, id, err)
	}
	return last, lastID, nil
}
