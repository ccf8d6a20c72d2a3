// Package stats provides the statistics accumulators used by the simulator:
// latency recorders per access class, counters for protocol events, and the
// distribution helpers (mean, max, RMS skew) the paper's evaluation section
// reports.
package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// Accumulator tracks count, sum, min and max of a stream of samples.
type Accumulator struct {
	N        int64
	Sum      float64
	MinV     float64
	MaxV     float64
	hasFirst bool
}

// Add records one sample.
func (a *Accumulator) Add(v float64) {
	if !a.hasFirst {
		a.MinV, a.MaxV = v, v
		a.hasFirst = true
	} else {
		if v < a.MinV {
			a.MinV = v
		}
		if v > a.MaxV {
			a.MaxV = v
		}
	}
	a.N++
	a.Sum += v
}

// Mean returns the sample mean, or 0 for an empty accumulator.
func (a *Accumulator) Mean() float64 {
	if a.N == 0 {
		return 0
	}
	return a.Sum / float64(a.N)
}

// Merge folds other into a.
func (a *Accumulator) Merge(other *Accumulator) {
	if other.N == 0 {
		return
	}
	if !a.hasFirst {
		*a = *other
		return
	}
	a.N += other.N
	a.Sum += other.Sum
	if other.MinV < a.MinV {
		a.MinV = other.MinV
	}
	if other.MaxV > a.MaxV {
		a.MaxV = other.MaxV
	}
}

func (a *Accumulator) String() string {
	return fmt.Sprintf("n=%d mean=%.2f min=%.0f max=%.0f", a.N, a.Mean(), a.MinV, a.MaxV)
}

// LatencyStats separates read and write access latencies, matching how the
// paper reports every experiment.
type LatencyStats struct {
	Read  Accumulator
	Write Accumulator
	// DeadlockRead/DeadlockWrite accumulate only the cycles spent in
	// deadlock detection and recovery (timeout plus backoff), feeding
	// Table 4.
	DeadlockRead  Accumulator
	DeadlockWrite Accumulator
}

// Record adds one completed access of the given kind.
func (l *LatencyStats) Record(isWrite bool, latency int64) {
	if isWrite {
		l.Write.Add(float64(latency))
	} else {
		l.Read.Add(float64(latency))
	}
}

// RecordDeadlock adds deadlock-recovery cycles attributed to one access.
func (l *LatencyStats) RecordDeadlock(isWrite bool, cycles int64) {
	if isWrite {
		l.DeadlockWrite.Add(float64(cycles))
	} else {
		l.DeadlockRead.Add(float64(cycles))
	}
}

// DeadlockShare returns the fraction of total read and write latency that is
// attributable to deadlock recovery, as percentages (Table 4's metric).
func (l *LatencyStats) DeadlockShare() (readPct, writePct float64) {
	if l.Read.Sum > 0 {
		readPct = 100 * l.DeadlockRead.Sum / l.Read.Sum
	}
	if l.Write.Sum > 0 {
		writePct = 100 * l.DeadlockWrite.Sum / l.Write.Sum
	}
	return readPct, writePct
}

// Reduction returns the percentage reduction of measured versus baseline:
// 100*(base-measured)/base. A negative value means a slowdown.
func Reduction(base, measured float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (base - measured) / base
}

// Sampler retains all samples for distribution queries (percentiles); the
// simulator attaches one per access class when detailed reporting is on.
// A running sum makes Mean O(1), and the sorted flag makes a Summarize (or
// any burst of Percentile calls) sort at most once until the next Add.
type Sampler struct {
	vals   []float64
	sum    float64
	sorted bool
}

// Add records one sample.
func (s *Sampler) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sum += v
	s.sorted = false
}

// N returns the number of samples.
func (s *Sampler) N() int { return len(s.vals) }

// ensureSorted sorts the sample vector if an Add invalidated it. It is the
// single sort site: Percentile and Summarize both go through it, so a
// summary costs one sort, not one per percentile.
func (s *Sampler) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// rank returns the nearest-rank index value for percentile p on the sorted
// vector; callers guarantee at least one sample.
func (s *Sampler) rank(p float64) float64 {
	if p <= 0 {
		return s.vals[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.vals))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.vals) {
		rank = len(s.vals)
	}
	return s.vals[rank-1]
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank, or 0 with no samples.
func (s *Sampler) Percentile(p float64) float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.rank(p)
}

// Mean returns the sample mean, or 0 with no samples.
func (s *Sampler) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Summary is the standard latency report: the mean the paper's tables use
// plus the tail percentiles (p50/p95/p99) that characterize the
// distribution's body and tail.
type Summary struct {
	N             int64
	Mean          float64
	P50, P95, P99 float64
}

// Summarize computes the sampler's summary (zero value with no samples).
// It sorts at most once per Add burst and reads every statistic off the
// sorted vector and the running sum, so repeated summaries allocate
// nothing and do no re-sorting.
func (s *Sampler) Summarize() Summary {
	if len(s.vals) == 0 {
		return Summary{}
	}
	s.ensureSorted()
	return Summary{
		N:    int64(len(s.vals)),
		Mean: s.sum / float64(len(s.vals)),
		P50:  s.rank(50),
		P95:  s.rank(95),
		P99:  s.rank(99),
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f",
		s.N, s.Mean, s.P50, s.P95, s.P99)
}

// Counters is a string-keyed event counter set for protocol bookkeeping
// (teardowns spawned, deadlocks recovered, victim hits, ...). The map is
// mutex-guarded, so a Counters value may be shared across goroutines; the
// simulator itself updates it from one goroutine.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// Inc adds delta to counter name.
func (c *Counters) Inc(name string, delta int64) {
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns counter name (zero if never incremented).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Names returns all counter names in sorted order.
func (c *Counters) Names() []string {
	c.mu.Lock()
	names := make([]string, 0, len(c.m))
	for k := range c.m {
		names = append(names, k)
	}
	c.mu.Unlock()
	sort.Strings(names)
	return names
}

// RMSSkew measures how far a discrete distribution deviates from uniform:
// the root-mean-squared difference between each bucket's share and the
// uniform share 1/len(counts). The paper uses this to explain per-benchmark
// write-latency variation (Section 3.1).
func RMSSkew(counts []int64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var total int64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	uniform := 1.0 / float64(len(counts))
	var ss float64
	for _, c := range counts {
		d := float64(c)/float64(total) - uniform
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(counts)))
}

// Mean returns the mean of a float64 slice (0 for empty input).
func Mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}
