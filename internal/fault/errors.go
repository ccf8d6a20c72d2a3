package fault

import (
	"errors"
	"fmt"
	"strings"
)

// HangError reports a run that failed to quiesce: either the kernel's hang
// watchdog saw a non-empty active set make no progress for a full window,
// or the cycle bound expired first. It replaces the silent formatted error
// the cycle-bound exit used to produce, carries the reproducer seed, and
// embeds the machine's stuck report (blocked nodes, in-flight packets,
// per-router queue occupancy).
type HangError struct {
	// Cycle is the simulation cycle the hang was declared at and Seed the
	// run seed that reproduces it.
	Cycle int64
	Seed  uint64
	// Watchdog is true when the no-progress watchdog tripped, false when
	// the run simply reached its cycle bound without quiescing.
	Watchdog bool
	// Report is the machine's stuck-state diagnosis.
	Report string
	// DumpPath is the hang dump file (flight recorder + queue occupancy)
	// written for this hang, empty when dumping was not configured or the
	// write failed.
	DumpPath string
	// DumpErr is why the configured hang dump could not be written, empty
	// when it was written or not configured.
	DumpErr string
}

func (e *HangError) Error() string {
	cause := "cycle bound reached without quiescence"
	if e.Watchdog {
		cause = "watchdog tripped: no progress with work outstanding"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fault: hang (%s): stuck after %d cycles (reproducer seed %#x): %s",
		cause, e.Cycle, e.Seed, e.Report)
	if e.DumpPath != "" {
		fmt.Fprintf(&b, " [dump: %s]", e.DumpPath)
	}
	if e.DumpErr != "" {
		fmt.Fprintf(&b, " [dump failed: %s]", e.DumpErr)
	}
	return b.String()
}

// RetryExhaustedError reports an access whose reissue budget ran out: the
// network kept losing the request chain (or replies kept timing out) more
// times than the configured retry budget allows.
type RetryExhaustedError struct {
	// Node, Addr and Write identify the access that could not complete.
	Node  int
	Addr  uint64
	Write bool
	// Attempts is the total number of issues (original plus reissues).
	Attempts int
	// Cycle is when the budget ran out; Seed reproduces the run.
	Cycle int64
	Seed  uint64
}

func (e *RetryExhaustedError) Error() string {
	return fmt.Sprintf("fault: retry budget exhausted: node %d addr %#x write=%v after %d attempts at cycle %d (reproducer seed %#x)",
		e.Node, e.Addr, e.Write, e.Attempts, e.Cycle, e.Seed)
}

// InvariantError reports a coherence-invariant violation caught by the
// runtime probe at the cycle it occurred — a corruption the end-state diff
// would otherwise only surface after the run.
type InvariantError struct {
	Cycle      int64
	Seed       uint64
	Violations []string
}

func (e *InvariantError) Error() string {
	first := "(none recorded)"
	if len(e.Violations) > 0 {
		first = e.Violations[0]
	}
	return fmt.Sprintf("fault: %d coherence invariant violations at cycle %d (reproducer seed %#x), first: %s",
		len(e.Violations), e.Cycle, e.Seed, first)
}

// Transient reports whether err is a failure a retried run (with a derived
// sub-seed) might not reproduce: hangs and exhausted retry budgets depend
// on the fault schedule, while panics, build errors and invariant
// violations are deterministic bugs that re-running cannot fix.
func Transient(err error) bool {
	var hang *HangError
	var retry *RetryExhaustedError
	return errors.As(err, &hang) || errors.As(err, &retry)
}
