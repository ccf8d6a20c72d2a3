package exec

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// resultBytes canonicalizes a Result for byte-identity comparison (Key and
// Cached are presentation-only and excluded by their json tags).
func resultBytes(t *testing.T, r Result) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return b
}

// restartRun runs the job the way a restarted server does: a first run is
// canceled after cancelAfter progress callbacks, and a second run starts
// over from the spec at the attempt the first run last reported — the one
// piece of run state a job record keeps. It returns the second run's
// result and the cycle the first run was stopped at (0 if it finished
// before the cancel).
func restartRun(t *testing.T, job Job, seg int64, cancelAfter int) (Result, int64) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	seen, attempt := 0, 0
	first := RunJob(job, RunOptions{
		Ctx:           ctx,
		SegmentCycles: seg,
		Progress: func(p Progress) {
			attempt = p.Attempt
			if seen++; seen == cancelAfter {
				cancel()
			}
		},
	})
	if !first.Canceled {
		return first, 0
	}
	return RunJob(job, RunOptions{SegmentCycles: seg, StartAttempt: attempt}), first.Cycles
}

// TestCheckpointRestoreByteIdentical is the restart differential of the
// acceptance criteria. A job's checkpoint is its spec plus the attempt
// index a serving layer stores on the job record; restoring is rerunning
// from the spec. For every trace profile and both engines, a run paused
// every 256 cycles, and a run canceled mid-way and restarted from its
// spec, must both be byte-identical to an uninterrupted run.
func TestCheckpointRestoreByteIdentical(t *testing.T) {
	for _, p := range trace.Benchmarks() {
		for _, kind := range []protocol.EngineKind{protocol.KindDirectory, protocol.KindTree} {
			p, kind := p, kind
			t.Run(p.Name+"/"+kind.String(), func(t *testing.T) {
				t.Parallel()
				job := testJob(p.Name, kind, 40)
				straight := RunJob(job, RunOptions{})
				if straight.Failed() {
					t.Fatalf("uninterrupted run failed: %s", straight.Err)
				}
				want := resultBytes(t, straight)

				segments := 0
				segmented := RunJob(job, RunOptions{
					SegmentCycles: 256,
					Progress:      func(Progress) { segments++ },
				})
				if got := resultBytes(t, segmented); !reflect.DeepEqual(want, got) {
					t.Fatalf("segmented run diverged from uninterrupted run\n straight:  %s\n segmented: %s", want, got)
				}
				if segments < 4 {
					t.Fatalf("only %d pauses; the run is too short to exercise segmentation", segments)
				}

				restarted, stoppedAt := restartRun(t, job, 256, segments/2)
				if stoppedAt <= 0 || stoppedAt >= straight.Cycles {
					t.Fatalf("first run stopped at cycle %d, outside the run (0, %d)", stoppedAt, straight.Cycles)
				}
				if got := resultBytes(t, restarted); !reflect.DeepEqual(want, got) {
					t.Fatalf("restarted run diverged from uninterrupted run\n straight:  %s\n restarted: %s", want, got)
				}
			})
		}
	}
}

// TestCheckpointRestoreUnderFaultPlan repeats the restart differential with
// an armed fault plan and retry budget: dropped packets, protocol retries
// and the transient-retry attempt counter must all come out identically
// through segment pauses and through a cancel-and-restart.
func TestCheckpointRestoreUnderFaultPlan(t *testing.T) {
	job := testJob("fft", protocol.KindTree, 60)
	job.Faults = "drop=3000,timeout=200000,retries=6,backoff=64"
	job.Retries = 2

	straight := RunJob(job, RunOptions{})
	if straight.Failed() {
		t.Fatalf("uninterrupted faulty run failed: %s", straight.Err)
	}
	want := resultBytes(t, straight)
	segmented := RunJob(job, RunOptions{SegmentCycles: 256})
	if got := resultBytes(t, segmented); !reflect.DeepEqual(want, got) {
		t.Fatalf("faulty segmented run diverged\n straight:  %s\n segmented: %s", want, got)
	}
	restarted, stoppedAt := restartRun(t, job, 256, 8)
	if stoppedAt == 0 {
		t.Fatalf("run finished before the cancel; nothing was restarted")
	}
	if got := resultBytes(t, restarted); !reflect.DeepEqual(want, got) {
		t.Fatalf("faulty restarted run diverged\n straight:  %s\n restarted: %s", want, got)
	}
	for name, r := range map[string]Result{"segmented": segmented, "restarted": restarted} {
		if r.Attempts != straight.Attempts {
			t.Fatalf("%s attempts diverged: %d vs %d", name, r.Attempts, straight.Attempts)
		}
	}
}

// TestStartAttemptSkipsFailedAttempts: a job whose attempts all fail
// transiently, restarted at attempt 1, runs only attempts 1 and 2 and
// returns the fresh run's result byte for byte. A start past the retry
// budget is clamped to the last attempt.
func TestStartAttemptSkipsFailedAttempts(t *testing.T) {
	job := faultJob("drop=1000000,timeout=1000,retries=0,backoff=16", 2)
	fresh := RunJob(job, RunOptions{})
	if !fresh.Failed() || !fresh.Transient || fresh.Attempts != 3 {
		t.Fatalf("fresh run: failed=%v transient=%v attempts=%d, want a transient failure after 3 attempts",
			fresh.Failed(), fresh.Transient, fresh.Attempts)
	}
	for _, tc := range []struct{ start, first int }{{1, 1}, {9, 2}} {
		var attempts []int
		// Each all-drop attempt fails within a few cycles, so only one-cycle
		// segments report its progress.
		res := RunJob(job, RunOptions{
			SegmentCycles: 1,
			StartAttempt:  tc.start,
			Progress: func(p Progress) {
				if len(attempts) == 0 || attempts[len(attempts)-1] != p.Attempt {
					attempts = append(attempts, p.Attempt)
				}
			},
		})
		if len(attempts) == 0 || attempts[0] != tc.first {
			t.Fatalf("StartAttempt %d: attempts seen %v, want the first to be %d", tc.start, attempts, tc.first)
		}
		if res.Attempts != 3 {
			t.Fatalf("StartAttempt %d: Attempts = %d, want 3", tc.start, res.Attempts)
		}
		if got, want := resultBytes(t, res), resultBytes(t, fresh); !reflect.DeepEqual(want, got) {
			t.Fatalf("StartAttempt %d: result differs from a fresh run\n fresh: %s\n got:   %s", tc.start, want, got)
		}
	}
}

// TestRunJobCancellationStopsPromptly: a canceled context stops the
// simulation at the next segment boundary and marks the result canceled.
func TestRunJobCancellationStopsPromptly(t *testing.T) {
	job := testJob("ocn", protocol.KindDirectory, 400)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	segments := 0
	res := RunJob(job, RunOptions{
		Ctx:           ctx,
		SegmentCycles: 256,
		Progress: func(Progress) {
			if segments++; segments == 3 {
				cancel()
			}
		},
	})
	if !res.Canceled {
		t.Fatalf("result not marked canceled: %+v", res)
	}
	if !res.Failed() {
		t.Fatalf("canceled result should carry an error")
	}
	if segments != 3 || res.Cycles != 3*256 {
		t.Fatalf("stopped after %d segments at cycle %d, want 3 segments at cycle %d", segments, res.Cycles, 3*256)
	}
}

// TestCacheTreatsTruncatedEntryAsMiss is the corrupt-cache regression test:
// a deliberately truncated result file must read as a miss and be repaired
// by the next Put, never poison callers.
func TestCacheTreatsTruncatedEntryAsMiss(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatalf("open cache: %v", err)
	}
	job := testJob("wns", protocol.KindDirectory, 40)
	hash := job.Hash()

	pool := &Pool{Workers: 1, Cache: cache}
	first := pool.Run([]Job{job})[0]
	if first.Failed() || first.Cached {
		t.Fatalf("priming run: %+v", first)
	}

	// Truncate the stored entry mid-file.
	matches, err := filepath.Glob(filepath.Join(dir, "*"+hash[:16]+"*"))
	if err != nil || len(matches) == 0 {
		// Entry layout may nest or rename; find any regular file instead.
		matches = nil
		filepath.Walk(dir, func(p string, info os.FileInfo, err error) error {
			if err == nil && info.Mode().IsRegular() {
				matches = append(matches, p)
			}
			return nil
		})
	}
	if len(matches) == 0 {
		t.Fatalf("no cache entry file found under %s", dir)
	}
	for _, m := range matches {
		b, err := os.ReadFile(m)
		if err != nil {
			t.Fatalf("read entry: %v", err)
		}
		if err := os.WriteFile(m, b[:len(b)/3], 0o644); err != nil {
			t.Fatalf("truncate entry: %v", err)
		}
	}

	if _, ok := cache.Get(hash); ok {
		t.Fatalf("truncated entry served as a hit")
	}
	again := pool.Run([]Job{job})[0]
	if again.Failed() {
		t.Fatalf("re-run after truncation failed: %s", again.Err)
	}
	if again.Cached {
		t.Fatalf("truncated entry was served from cache")
	}
	if !reflect.DeepEqual(resultBytes(t, first), resultBytes(t, again)) {
		t.Fatalf("post-truncation re-run differs from original")
	}
	// And the re-run repaired the entry.
	if _, ok := cache.Get(hash); !ok {
		t.Fatalf("cache not repaired after re-run")
	}
}
