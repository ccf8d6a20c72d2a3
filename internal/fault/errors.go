package fault

import (
	"errors"
	"fmt"
)

// HangError reports a run that failed to quiesce: either the kernel's hang
// watchdog saw a non-empty active set make no progress for a full window,
// or the cycle bound expired first. It replaces the silent formatted error
// the cycle-bound exit used to produce, carries the reproducer seed, and
// embeds the machine's stuck report (blocked nodes, in-flight packets,
// per-router queue occupancy). The report and, when metrics are on, the
// flight ring exec attaches to the failed result are the post-mortem.
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
}

func (e *HangError) Error() string {
	cause := "cycle bound reached without quiescence"
	if e.Watchdog {
		cause = "watchdog tripped: no progress with work outstanding"
	}
	return fmt.Sprintf("fault: hang (%s): stuck after %d cycles (reproducer seed %#x): %s",
		cause, e.Cycle, e.Seed, e.Report)
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

// Transient reports whether err is a failure a retried run (with a derived
// sub-seed) might not reproduce: hangs and exhausted retry budgets depend
// on the fault schedule, while panics, build errors and invariant
// violations (*verify.Error) are deterministic bugs that re-running cannot
// fix.
func Transient(err error) bool {
	var hang *HangError
	var retry *RetryExhaustedError
	return errors.As(err, &hang) || errors.As(err, &retry)
}
