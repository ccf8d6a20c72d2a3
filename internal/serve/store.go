package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"innetcc/internal/exec"
)

// Job lifecycle states. A job is terminal in StateDone, StateFailed or
// StateCanceled; queued and running jobs survive a server restart (running
// ones are requeued and, when a checkpoint exists, resumed from it).
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobRecord is the persistent lifecycle record of one submitted job. It is
// what the status endpoints return and what the store writes to disk; the
// result payload itself lives in the content-hash result cache under
// Hash.
type JobRecord struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Priority int    `json:"priority"`
	State    string `json:"state"`

	// Hash is the job's content hash: the result-cache key, shared with
	// direct internal/exec runs of the same spec.
	Hash string `json:"hash"`

	SubmittedAt int64 `json:"submittedAt"` // unix milliseconds
	StartedAt   int64 `json:"startedAt,omitempty"`
	FinishedAt  int64 `json:"finishedAt,omitempty"`

	// Seq is the submission sequence number scheduling ties break on;
	// StartSeq is the scheduler sequence at which the job last started
	// running (0 while never started), making the actual dispatch order
	// observable.
	Seq      int64 `json:"seq"`
	StartSeq int64 `json:"startSeq,omitempty"`

	// Cycle and Attempt mirror the latest streamed progress.
	Cycle   int64 `json:"cycle,omitempty"`
	Attempt int   `json:"attempt,omitempty"`

	// Error is set in StateFailed (and carries the cancellation cause in
	// StateCanceled). Cached reports the result came from the cache
	// without simulating.
	Error  string `json:"error,omitempty"`
	Cached bool   `json:"cached,omitempty"`

	Job exec.Job `json:"job"`
}

// Terminal reports whether the record's state is final.
func (r *JobRecord) Terminal() bool {
	return r.State == StateDone || r.State == StateFailed || r.State == StateCanceled
}

// store persists job records and checkpoints under the server's data
// directory:
//
//	<dir>/jobs/<id>.json   one JobRecord per job, written atomically
//	<dir>/ckpt/<id>.ckpt   latest checkpoint of a running job
//	<dir>/cache/           the exec result cache (opened by the server)
type store struct {
	dir string
}

func openStore(dir string) (*store, error) {
	for _, sub := range []string{"jobs", "ckpt", "cache"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: store: %w", err)
		}
	}
	return &store{dir: dir}, nil
}

func (s *store) cacheDir() string { return filepath.Join(s.dir, "cache") }

func (s *store) jobPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".json")
}

func (s *store) ckptPath(id string) string {
	return filepath.Join(s.dir, "ckpt", id+".ckpt")
}

// putJob writes the record atomically (temp file + rename), so a crash
// leaves the previous version, never a torn one.
func (s *store) putJob(rec *JobRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	path := s.jobPath(rec.ID)
	tmp, err := os.CreateTemp(filepath.Dir(path), ".job*")
	if err != nil {
		return fmt.Errorf("serve: store: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("serve: store: %w", err)
	}
	return nil
}

// loadJobs reads every decodable job record. Undecodable files (torn by a
// crash predating the atomic writer, or hand-damaged) are skipped, not
// fatal: losing one record must not take the whole server down.
func (s *store) loadJobs() ([]*JobRecord, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("serve: store: %w", err)
	}
	var out []*JobRecord
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(s.dir, "jobs", e.Name()))
		if err != nil {
			continue
		}
		var rec JobRecord
		if json.Unmarshal(b, &rec) != nil || rec.ID == "" {
			continue
		}
		out = append(out, &rec)
	}
	return out, nil
}

// loadSnapshot returns the job's checkpoint if one exists, decodes, and
// actually belongs to the job's spec. Any failure reads as "no
// checkpoint": a checkpoint is an optimization, never a correctness
// dependency.
func (s *store) loadSnapshot(rec *JobRecord) *exec.Snapshot {
	snap, err := exec.ReadSnapshot(s.ckptPath(rec.ID))
	if err != nil || snap.Job.Hash() != rec.Hash {
		return nil
	}
	return &snap
}

func (s *store) dropSnapshot(id string) { os.Remove(s.ckptPath(id)) }
