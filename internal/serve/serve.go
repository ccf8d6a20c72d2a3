// Package serve is the persistent simulation-as-a-service layer: an
// HTTP/JSON job API in front of internal/exec with a FIFO queue and
// persisted job records, so a killed server reruns interrupted jobs on
// restart, starting each at the attempt its record stores. The record is
// also how a client follows a job: it carries the state, the progress
// cycle and the attempt. Results are stored in the same content-hash cache
// the batch pool uses, so server runs and direct runs share one result
// store.
package serve

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"innetcc/internal/exec"
	"innetcc/internal/network"
	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// Options configures a Server.
type Options struct {
	// DataDir is the persistence root: job records and the result cache
	// live under it. Required.
	DataDir string

	// Workers is the number of concurrent simulations (<= 0 means 1).
	Workers int

	// SegmentCycles is the segmented runner's pause granularity: how
	// often a running job updates its record's cycle and notices
	// cancellation or a drain.
	SegmentCycles int64
}

// maxPending caps the server's non-terminal (queued + running) jobs, so
// outside input cannot grow the job table and the store without bound.
const maxPending = 64

// ErrQueueFull rejects a submission while maxPending jobs are pending.
var ErrQueueFull = errors.New("serve: job queue full")

// ErrUnknownJob is returned for operations on a job ID the server has no
// record of.
var ErrUnknownJob = errors.New("serve: unknown job")

// Server is the simulation-as-a-service scheduler: it owns the job table,
// the worker goroutines that drive exec.RunJob, and the persistence store.
// HTTP handling lives in http.go over the same methods the tests call
// directly.
type Server struct {
	opt   Options
	store *store
	cache *exec.Cache

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu   sync.Mutex
	cond *sync.Cond
	jobs map[string]*jobState // every job, terminal ones included
	// live holds the non-terminal (queued or running) jobs, at most
	// maxPending, and ended counts the terminal ones by state, so
	// submission, dispatch and Stats cost the pending jobs, not every
	// job the data directory has ever run.
	live     map[string]*jobState
	ended    map[string]int
	running  map[string]int // content hash -> running count (dedupe guard)
	draining bool
	seq      int64

	// killed simulates a crash (Server.Kill): once set, nothing more is
	// written to the store — no attempt updates, no record transitions —
	// so the on-disk state is exactly what a kill -9 would leave behind.
	killed atomic.Bool

	// observe, when set before start, sees every progress observation of
	// every run, under mu. Only the package's tests set it.
	observe func(id string, p exec.Progress)
}

// jobState pairs the persistent record, the one thing clients read, with
// the in-process lifecycle: cancellation, the last result, and the channel
// Wait blocks on.
type jobState struct {
	rec          JobRecord
	runCtx       context.Context    // set while running
	cancel       context.CancelFunc // non-nil while running
	userCanceled bool
	result       *exec.Result  // set in terminal states (also cached on disk)
	done         chan struct{} // closed on terminal state
}

// New opens the data directory, loads persisted job records, requeues
// every job that was queued or running when the previous process died, and
// starts the worker pool. An interrupted job reruns from its spec,
// starting at the attempt its record stores.
func New(opt Options) (*Server, error) {
	s, err := open(opt)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

// open is New without the worker pool.
func open(opt Options) (*Server, error) {
	if opt.DataDir == "" {
		return nil, fmt.Errorf("serve: Options.DataDir is required")
	}
	if opt.Workers <= 0 {
		opt.Workers = 1
	}
	st, err := openStore(opt.DataDir)
	if err != nil {
		return nil, err
	}
	cache, err := exec.OpenCache(st.cacheDir())
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opt:        opt,
		store:      st,
		cache:      cache,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*jobState),
		live:       make(map[string]*jobState),
		ended:      make(map[string]int),
		running:    make(map[string]int),
	}
	s.cond = sync.NewCond(&s.mu)

	recs, err := st.loadJobs()
	if err != nil {
		cancel()
		return nil, err
	}
	for _, rec := range recs {
		js := &jobState{rec: *rec, done: make(chan struct{})}
		if js.rec.Terminal() {
			close(js.done)
			s.ended[js.rec.State]++
		} else {
			// The previous process died (or drained) with this job
			// pending; requeue it. The rerun starts at the record's
			// attempt, skipping attempts that already failed.
			js.rec.State = StateQueued
			js.rec.StartedAt = 0
			if err := st.putJob(&js.rec); err != nil {
				cancel()
				return nil, err
			}
			s.live[js.rec.ID] = js
		}
		s.jobs[js.rec.ID] = js
		if js.rec.Seq >= s.seq {
			s.seq = js.rec.Seq + 1
		}
	}
	return s, nil
}

// start launches the worker pool.
func (s *Server) start() {
	for i := 0; i < s.opt.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// SubmitRequest is the submission payload of POST /v1/jobs. It is a
// convenience surface over exec.Job: the profile is named, the engine is
// its kind string, and the machine configuration defaults to the paper's
// Table 2 setup unless overridden. Older clients may still send the
// retired "tenant", "priority", "shards" and "snapshot" keys; the decoder
// ignores them.
type SubmitRequest struct {
	Key string `json:"key,omitempty"`

	Profile  string `json:"profile"`
	Engine   string `json:"engine"`
	Accesses int    `json:"accesses"`

	SuiteSeed uint64 `json:"suiteSeed,omitempty"` // 42 when zero
	MaxCycles int64  `json:"maxCycles,omitempty"`
	Faults    string `json:"faults,omitempty"`
	Retries   int    `json:"retries,omitempty"`
	Metrics   bool   `json:"metrics,omitempty"`

	// Topology overrides the fabric ("mesh:4x4", "torus:8x8", "ring:16");
	// empty keeps the config's (or default's) fabric. Multicast switches
	// hardware multicast on. Both are conveniences over shipping a full
	// Config for the two knobs topology sweeps actually turn.
	Topology  string `json:"topology,omitempty"`
	Multicast bool   `json:"multicast,omitempty"`

	Config *protocol.Config `json:"config,omitempty"`
}

// BuildJob resolves the request into the exec.Job it describes.
func (r SubmitRequest) BuildJob() (exec.Job, error) {
	p, err := trace.ProfileByName(r.Profile)
	if err != nil {
		return exec.Job{}, fmt.Errorf("serve: %w", err)
	}
	kind, err := protocol.ParseEngineKind(r.Engine)
	if err != nil {
		return exec.Job{}, fmt.Errorf("serve: %w", err)
	}
	if r.Accesses <= 0 {
		return exec.Job{}, fmt.Errorf("serve: accesses must be positive")
	}
	cfg := protocol.DefaultConfig()
	if r.Config != nil {
		cfg = *r.Config
	}
	if r.Topology != "" {
		ts, err := network.ParseTopoSpec(r.Topology)
		if err != nil {
			return exec.Job{}, fmt.Errorf("serve: %w", err)
		}
		cfg.Topology = ts
	}
	if r.Multicast {
		cfg.Multicast = true
	}
	seed := r.SuiteSeed
	if seed == 0 {
		seed = 42
	}
	key := r.Key
	if key == "" {
		key = r.Profile + "/" + r.Engine
	}
	return exec.Job{
		Key:       key,
		Engine:    kind,
		Config:    cfg,
		Profile:   p,
		Accesses:  r.Accesses,
		SuiteSeed: seed,
		MaxCycles: r.MaxCycles,
		Metrics:   exec.MetricsSpec{Enabled: r.Metrics},
		Faults:    r.Faults,
		Retries:   r.Retries,
	}, nil
}

// Submit validates the request, persists the job record and enqueues it.
// The returned record is a snapshot.
func (s *Server) Submit(req SubmitRequest) (JobRecord, error) {
	job, err := req.BuildJob()
	if err != nil {
		return JobRecord{}, err
	}
	hash := job.Hash()

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return JobRecord{}, fmt.Errorf("serve: server is draining")
	}
	if pending := len(s.live); pending >= maxPending {
		return JobRecord{}, fmt.Errorf("%w: %d jobs pending", ErrQueueFull, pending)
	}
	js := &jobState{
		rec: JobRecord{
			ID:          s.newIDLocked(hash),
			State:       StateQueued,
			Hash:        hash,
			SubmittedAt: time.Now().UnixMilli(),
			Seq:         s.seq,
			Job:         job,
		},
		done: make(chan struct{}),
	}
	s.seq++
	if err := s.store.putJob(&js.rec); err != nil {
		return JobRecord{}, err
	}
	s.jobs[js.rec.ID] = js
	s.live[js.rec.ID] = js
	s.cond.Broadcast()
	return js.rec, nil
}

// newIDLocked generates a unique job ID: random prefix plus the first
// bytes of the content hash for human correlation.
func (s *Server) newIDLocked(hash string) string {
	for {
		var b [6]byte
		rand.Read(b[:])
		id := "j-" + hex.EncodeToString(b[:]) + "-" + hash[:8]
		if _, taken := s.jobs[id]; !taken {
			return id
		}
	}
}

// Job returns a snapshot of the record.
func (s *Server) Job(id string) (JobRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	js := s.jobs[id]
	if js == nil {
		return JobRecord{}, ErrUnknownJob
	}
	return js.rec, nil
}

// Jobs lists record snapshots in submission order.
func (s *Server) Jobs() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.jobs))
	for _, js := range s.jobs {
		out = append(out, js.rec)
	}
	slices.SortFunc(out, func(a, b JobRecord) int { return cmp.Compare(a.Seq, b.Seq) })
	return out
}

// Result returns the job's result. Only terminal done/failed jobs have
// one; it is served from memory when the run happened in this process,
// from the shared result cache otherwise.
func (s *Server) Result(id string) (exec.Result, error) {
	s.mu.Lock()
	js := s.jobs[id]
	if js == nil {
		s.mu.Unlock()
		return exec.Result{}, ErrUnknownJob
	}
	rec := js.rec
	res := js.result
	s.mu.Unlock()
	if !rec.Terminal() {
		return exec.Result{}, fmt.Errorf("serve: job %s is %s, no result yet", id, rec.State)
	}
	if rec.State == StateCanceled {
		return exec.Result{}, fmt.Errorf("serve: job %s was canceled", id)
	}
	if res != nil {
		return *res, nil
	}
	if r, ok := s.cache.Get(rec.Hash); ok {
		r.Key = rec.Job.Key
		r.Cached = true
		return r, nil
	}
	return exec.Result{}, fmt.Errorf("serve: job %s finished but its result left the cache", id)
}

// Cancel stops a queued or running job. Queued jobs cancel immediately;
// running jobs stop at the next segment boundary.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	js := s.jobs[id]
	if js == nil {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	if js.rec.Terminal() {
		s.mu.Unlock()
		return nil
	}
	js.userCanceled = true
	if js.rec.State == StateQueued {
		s.finishLocked(js, StateCanceled, "canceled while queued")
		s.mu.Unlock()
		return nil
	}
	cancel := js.cancel
	s.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// Wait blocks until the job reaches a terminal state (or ctx ends) and
// returns the final record.
func (s *Server) Wait(ctx context.Context, id string) (JobRecord, error) {
	s.mu.Lock()
	js := s.jobs[id]
	s.mu.Unlock()
	if js == nil {
		return JobRecord{}, ErrUnknownJob
	}
	select {
	case <-js.done:
		return s.Job(id)
	case <-ctx.Done():
		return JobRecord{}, ctx.Err()
	}
}

// Stats is the GET /v1/stats payload.
type Stats struct {
	Queued   int `json:"queued"`
	Running  int `json:"running"`
	Done     int `json:"done"`
	Failed   int `json:"failed"`
	Canceled int `json:"canceled"`

	CacheHits   int64 `json:"cacheHits"`
	CacheMisses int64 `json:"cacheMisses"`
}

// Stats snapshots the server accounting.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Done: s.ended[StateDone], Failed: s.ended[StateFailed], Canceled: s.ended[StateCanceled]}
	for _, js := range s.live {
		switch js.rec.State {
		case StateQueued:
			st.Queued++
		case StateRunning:
			st.Running++
		}
	}
	st.CacheHits, st.CacheMisses = s.cache.Stats()
	return st
}

// Drain gracefully shuts the server down: no new submissions, running
// jobs are stopped at their next segment boundary, and every interrupted
// job is requeued on disk so the next process reruns it from its spec.
// Drain blocks until all workers have exited.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
}

// Kill hard-stops the server, simulating a crash for fault-tolerance
// tests: running jobs are interrupted but — unlike Drain — no record
// transitions are written, so the data directory is left exactly as a
// kill -9 would leave it (records still marked running, with the attempt
// last persisted). A New over the same directory requeues and reruns the
// orphans, which is precisely the recovery path the simulation exercises.
// Kill blocks until all workers have exited; the Server is unusable
// afterwards.
func (s *Server) Kill() {
	s.killed.Store(true)
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
}

// worker pulls schedulable jobs until the server drains.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		js := s.next()
		if js == nil {
			return
		}
		s.runJob(js)
	}
}

// next blocks until a job is schedulable and claims it, or returns nil on
// drain.
func (s *Server) next() *jobState {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.draining {
			return nil
		}
		if js := s.pickLocked(); js != nil {
			s.startLocked(js)
			return js
		}
		s.cond.Wait()
	}
}

// pickLocked selects the schedulable queued job submitted first, or nil.
// A job is schedulable when no job with the same content hash is
// currently running (the second submitter waits and is then served
// straight from the result cache — exactly-once simulation per spec).
func (s *Server) pickLocked() *jobState {
	var best *jobState
	for _, js := range s.live {
		if js.rec.State != StateQueued || js.userCanceled || s.running[js.rec.Hash] > 0 {
			continue
		}
		if best == nil || js.rec.Seq < best.rec.Seq {
			best = js
		}
	}
	return best
}

// startLocked transitions a picked job to running.
func (s *Server) startLocked(js *jobState) {
	js.rec.StartSeq = s.seq
	s.seq++
	s.running[js.rec.Hash]++
	js.rec.State = StateRunning
	js.rec.StartedAt = time.Now().UnixMilli()
	js.runCtx, js.cancel = context.WithCancel(s.baseCtx)
	s.store.putJob(&js.rec)
}

// runJob drives one claimed job to a terminal state (or back to queued on
// drain).
func (s *Server) runJob(js *jobState) {
	rec := func() JobRecord { s.mu.Lock(); defer s.mu.Unlock(); return js.rec }()

	// Result-cache fast path: an identical spec already simulated — by a
	// previous job or a direct batch run.
	if r, ok := s.cache.Get(rec.Hash); ok {
		r.Key = rec.Job.Key
		r.Cached = true
		s.finishRun(js, r)
		return
	}

	res := exec.RunJob(rec.Job, exec.RunOptions{
		Ctx:           js.runCtx,
		SegmentCycles: s.opt.SegmentCycles,
		StartAttempt:  rec.Attempt,
		Progress: func(p exec.Progress) {
			s.mu.Lock()
			defer s.mu.Unlock()
			js.rec.Cycle = p.Cycle
			if p.Attempt != js.rec.Attempt {
				// A new attempt means the earlier ones failed
				// transiently; persist it so a restart, even after a
				// crash, skips them.
				js.rec.Attempt = p.Attempt
				if !s.killed.Load() {
					s.store.putJob(&js.rec)
				}
			}
			if s.observe != nil {
				s.observe(js.rec.ID, p)
			}
		},
	})

	if res.Canceled {
		if s.killed.Load() {
			// Crash simulation: die without touching memory or disk state.
			// The record stays "running" on disk, as a real crash leaves
			// it; restart requeues and reruns it.
			return
		}
		s.mu.Lock()
		if js.userCanceled {
			s.releaseRunLocked(js)
			s.finishLocked(js, StateCanceled, res.Err)
		} else {
			// Drain: requeue so the next process reruns the job from its
			// spec at the stored attempt.
			s.releaseRunLocked(js)
			js.rec.State = StateQueued
			js.rec.StartedAt = 0
			s.store.putJob(&js.rec)
		}
		s.mu.Unlock()
		return
	}

	if !res.Cached {
		s.cache.Put(rec.Hash, res)
	}
	s.finishRun(js, res)
}

// finishRun completes a run that produced a result (success, failure, or
// cache hit).
func (s *Server) finishRun(js *jobState, res exec.Result) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.releaseRunLocked(js)
	js.result = &res
	js.rec.Cycle = res.Cycles
	js.rec.Attempt = max(0, res.Attempts-1)
	js.rec.Cached = res.Cached
	state := StateDone
	if res.Failed() {
		state = StateFailed
	}
	s.finishLocked(js, state, res.Err)
}

// releaseRunLocked ends a running job's context and releases its dedupe
// claim, waking workers that a queued copy of its spec held back.
func (s *Server) releaseRunLocked(js *jobState) {
	if js.cancel != nil {
		js.cancel()
		js.cancel = nil
	}
	if s.running[js.rec.Hash]--; s.running[js.rec.Hash] <= 0 {
		delete(s.running, js.rec.Hash)
	}
	s.cond.Broadcast()
}

// finishLocked transitions to a terminal state, persists, moves the job
// from the live set to the terminal counts, and wakes waiters.
func (s *Server) finishLocked(js *jobState, state, errMsg string) {
	delete(s.live, js.rec.ID)
	s.ended[state]++
	js.rec.State = state
	js.rec.Error = errMsg
	js.rec.FinishedAt = time.Now().UnixMilli()
	s.store.putJob(&js.rec)
	close(js.done)
}
