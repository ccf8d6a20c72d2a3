package experiments

import (
	"fmt"
	"io"

	"innetcc/internal/exec"
	"innetcc/internal/metrics"
	"innetcc/internal/stats"
)

// MetricsEntry pairs a job's display key with its full result, so the
// observability payload can be reported and exported after the experiment's
// own tables are printed.
type MetricsEntry struct {
	Key    string
	Result exec.Result
}

// MetricsLog accumulates the metrics-carrying results of every job an
// experiment ran, in submission order (so the log, like the result tables,
// is identical at any parallelism level).
type MetricsLog struct {
	Entries []MetricsEntry
}

// add records the metrics-carrying results of one batch.
func (l *MetricsLog) add(results []exec.Result) {
	if l == nil {
		return
	}
	for _, r := range results {
		if r.Metrics != nil {
			l.Entries = append(l.Entries, MetricsEntry{Key: r.Key, Result: r})
		}
	}
}

// PrintMetrics renders the per-job observability tables: the latency
// breakdown (queueing / serialization / traversal / controller, whose means
// sum to the reported average latency), and the protocol instrumentation
// counters. Per-router NoC detail goes to -metrics-out rather than the
// terminal.
func PrintMetrics(w io.Writer, log *MetricsLog) {
	if log == nil || len(log.Entries) == 0 {
		return
	}
	fmt.Fprintln(w, "metrics — latency breakdown (mean cycles per access)")
	fmt.Fprintf(w, "  %-24s %-5s %7s %9s %9s %9s %9s %9s\n",
		"job", "class", "n", "total", "queue", "serial", "travers", "ctrl")
	for _, e := range log.Entries {
		m := e.Result.Metrics
		printBreakdownRow(w, e.Key, "read", m.Read)
		printBreakdownRow(w, e.Key, "write", m.Write)
	}
	printed := false
	for _, e := range log.Entries {
		m := e.Result.Metrics
		if len(m.Counters) == 0 {
			continue
		}
		if !printed {
			fmt.Fprintln(w, "metrics — protocol instrumentation counters")
			printed = true
		}
		fmt.Fprintf(w, "  %-24s", e.Key)
		// Registry order, not map order, fixes the printed order.
		for k := stats.Counter(0); k < stats.NumCounters; k++ {
			if v, ok := m.Counters[k.String()]; ok {
				fmt.Fprintf(w, " %s=%d", k, v)
			}
		}
		if h, ok := m.Counters[stats.MetricTreeHit.String()]; ok {
			if miss := m.Counters[stats.MetricTreeMiss.String()]; h+miss > 0 {
				fmt.Fprintf(w, " hit%%=%.1f", 100*float64(h)/float64(h+miss))
			}
		}
		fmt.Fprintln(w)
	}
}

func printBreakdownRow(w io.Writer, key, class string, c metrics.BreakdownClass) {
	if c.N == 0 {
		return
	}
	n := float64(c.N)
	fmt.Fprintf(w, "  %-24s %-5s %7d %9.1f %9.1f %9.1f %9.1f %9.1f\n",
		key, class, c.N,
		float64(c.Total)/n, float64(c.Queue)/n, float64(c.Serial)/n,
		float64(c.Traversal)/n, float64(c.Controller)/n)
}

// PrintFlight renders each job's flight-recorder tail, capped at maxEvents
// per job (0 means everything the ring retained). Jobs without a recorded
// ring (flight dumping off and the job succeeded) are skipped.
func PrintFlight(w io.Writer, log *MetricsLog, maxEvents int) {
	if log == nil {
		return
	}
	for _, e := range log.Entries {
		m := e.Result.Metrics
		if len(m.Flight) == 0 {
			continue
		}
		evs := m.Flight
		if maxEvents > 0 && len(evs) > maxEvents {
			evs = evs[len(evs)-maxEvents:]
		}
		fmt.Fprintf(w, "flight recorder — %s (last %d of %d events", e.Key, len(evs), m.FlightTotal)
		if e.Result.Failed() {
			fmt.Fprintf(w, "; job failed: %s", e.Result.Err)
		}
		fmt.Fprintln(w, ")")
		for _, ev := range evs {
			fmt.Fprintf(w, "  %s\n", ev.String())
		}
	}
}
