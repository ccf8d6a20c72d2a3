package exec

import (
	"context"
	"strings"
	"testing"

	"innetcc/internal/protocol"
)

// faultJob arms a job with a fault spec the simulate layer parses into the
// plan and recovery knobs.
func faultJob(spec string, retries int) Job {
	j := testJob("fft", protocol.KindTree, 60)
	j.Faults = spec
	j.Retries = retries
	return j
}

func TestFaultyJobCompletesWithRecovery(t *testing.T) {
	j := faultJob("drop=3000,timeout=200000,retries=6,backoff=64", 0)
	res := (&Pool{}).runOne(context.Background(), j)
	if res.Failed() {
		t.Fatalf("drop-plan job failed: %s", res.Err)
	}
	if res.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1 (completed on first attempt)", res.Attempts)
	}
	if res.Transient {
		t.Fatal("successful run marked transient")
	}
}

func TestTransientFailureClassifiedAndRetried(t *testing.T) {
	// Full-rate drop with a zero in-run retry budget: every attempt fails
	// fast with RetryExhaustedError, which must classify transient and be
	// re-run with derived sub-seeds until the job-level budget is spent.
	j := faultJob("drop=1000000,timeout=1000,retries=0,backoff=16", 2)
	res := (&Pool{}).runOne(context.Background(), j)
	if !res.Failed() {
		t.Fatal("all-drop job succeeded")
	}
	if !res.Transient {
		t.Fatalf("retry exhaustion not classified transient: %s", res.Err)
	}
	if res.Attempts != 3 {
		t.Fatalf("Attempts = %d, want 3 (1 + 2 retries)", res.Attempts)
	}
	if !strings.Contains(res.Err, "retry budget exhausted") {
		t.Fatalf("Err = %q, want a typed retry-exhaustion message", res.Err)
	}
}

func TestDeterministicFailureNotRetried(t *testing.T) {
	j := testJob("fft", protocol.KindTree, 60)
	j.Config.TreeEntries = 0 // rejected by Config.Validate on every attempt
	j.Retries = 3
	res := (&Pool{}).runOne(context.Background(), j)
	if !res.Failed() {
		t.Fatal("invalid config job succeeded")
	}
	if res.Transient {
		t.Fatalf("validation failure classified transient: %s", res.Err)
	}
	if res.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1 (deterministic failures never retry)", res.Attempts)
	}
}

func TestBadFaultSpecFailsJob(t *testing.T) {
	res := (&Pool{}).runOne(context.Background(), faultJob("drop=banana", 0))
	if !res.Failed() || !strings.Contains(res.Err, "bad fault spec") {
		t.Fatalf("Err = %q, want fault-spec parse error", res.Err)
	}
	if res.Transient {
		t.Fatal("spec parse error classified transient")
	}
}

func TestHashCoversFaultFields(t *testing.T) {
	base := testJob("fft", protocol.KindTree, 60)
	withFaults := base
	withFaults.Faults = "drop=500"
	withRetries := base
	withRetries.Retries = 2
	if base.Hash() == withFaults.Hash() {
		t.Error("fault spec not part of the cache identity")
	}
	if base.Hash() == withRetries.Hash() {
		t.Error("retry budget not part of the cache identity")
	}
}

// TestFaultRunsAreDeterministic: the same faulty job computes the identical
// result twice — the fault schedule and the retry sequence both derive from
// the job seed.
func TestFaultRunsAreDeterministic(t *testing.T) {
	j := faultJob("drop=3000,timeout=200000,retries=6,backoff=64", 1)
	a := (&Pool{}).runOne(context.Background(), j)
	b := (&Pool{}).runOne(context.Background(), j)
	if a.Err != b.Err || a.Cycles != b.Cycles || a.Attempts != b.Attempts {
		t.Fatalf("faulty runs diverged: %+v vs %+v", a, b)
	}
	if a.Counter("fault.drops") != b.Counter("fault.drops") ||
		a.Counter("retry.reissues") != b.Counter("retry.reissues") {
		t.Fatalf("fault counters diverged: drops %d vs %d, reissues %d vs %d",
			a.Counter("fault.drops"), b.Counter("fault.drops"),
			a.Counter("retry.reissues"), b.Counter("retry.reissues"))
	}
}

// TestWatchdogHangResultCarriesFlightRing: the post-mortem of a wedged job
// is its failed Result — the typed hang message and, with metrics on, the
// flight ring, even when FlightDump is off.
func TestWatchdogHangResultCarriesFlightRing(t *testing.T) {
	j := faultJob("stall=1000000,scope=all", 0) // every link frozen, forever
	j.Config.WatchdogCycles = 5000
	j.Metrics = MetricsSpec{Enabled: true}
	res := (&Pool{}).runOne(context.Background(), j)
	if !res.Failed() {
		t.Fatal("all-links-stalled job succeeded")
	}
	if !res.Transient {
		t.Fatalf("hang not classified transient: %s", res.Err)
	}
	if !strings.Contains(res.Err, "watchdog tripped") {
		t.Fatalf("Err = %q, want a watchdog hang", res.Err)
	}
	if res.Metrics == nil || len(res.Metrics.Flight) == 0 {
		t.Fatal("failed result carries no flight ring")
	}
}
