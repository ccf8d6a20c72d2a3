// Package stats provides the statistics accumulators used by the simulator:
// latency recorders per access class, counters for protocol events, and the
// distribution helpers (mean, max, RMS skew) the paper's evaluation section
// reports.
package stats

import (
	"fmt"
	"math"
	"sort"
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

// Sampler records a distribution for percentile queries; the simulator
// attaches one per access class when detailed reporting is on. It keeps a
// count per distinct value, not every sample: miss latencies are whole
// cycles that repeat (a wsp/tree run of 30,000 accesses per node has
// 40,912 read samples but 424 distinct values), so its memory grows with
// the number of distinct values. The running sum is added in sample order,
// as a slice of every sample would be, so Mean is the same bit for bit,
// and the nearest-rank percentiles are exact.
type Sampler struct {
	counts map[uint64]int64 // math.Float64bits(value) -> samples of it
	keys   []float64        // the distinct values, ascending when sorted
	n      int64
	sum    float64
	sorted bool
}

// Add records one sample.
func (s *Sampler) Add(v float64) {
	if s.counts == nil {
		s.counts = make(map[uint64]int64)
	}
	distinct := len(s.counts)
	s.counts[math.Float64bits(v)]++
	if len(s.counts) != distinct {
		s.keys = append(s.keys, v)
		s.sorted = false
	}
	s.n++
	s.sum += v
}

// N returns the number of samples.
func (s *Sampler) N() int { return int(s.n) }

// ensureSorted sorts the distinct values if an Add of a new value
// invalidated their order. It is the single sort site: Percentile and
// Summarize both go through it, so a summary costs at most one sort of
// the distinct values, and none until a new value arrives.
func (s *Sampler) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.keys)
		s.sorted = true
	}
}

// nearestRank returns the 1-based nearest-rank position of percentile p
// among n samples: the smallest rank whose sample is at least p percent
// of the distribution, clamped to [1, n].
func nearestRank(p float64, n int64) int64 {
	if p <= 0 {
		return 1
	}
	rank := int64(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return rank
}

// ranks fills out[i] with the value at the i-th ascending 1-based rank of
// want in one walk of the sorted distinct values; callers guarantee at
// least one sample and sorted keys.
func (s *Sampler) ranks(want []int64, out []float64) {
	var seen int64
	i := 0
	for _, k := range s.keys {
		seen += s.counts[math.Float64bits(k)]
		for i < len(want) && want[i] <= seen {
			out[i] = k
			i++
		}
		if i == len(want) {
			return
		}
	}
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank, or 0 with no samples.
func (s *Sampler) Percentile(p float64) float64 {
	if s.n == 0 {
		return 0
	}
	s.ensureSorted()
	var out [1]float64
	s.ranks([]int64{nearestRank(p, s.n)}, out[:])
	return out[0]
}

// Mean returns the sample mean, or 0 with no samples.
func (s *Sampler) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
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
// It sorts the distinct values at most once per new value and reads all
// three percentiles off one walk of them, so repeated summaries allocate
// nothing and do no re-sorting.
func (s *Sampler) Summarize() Summary {
	if s.n == 0 {
		return Summary{}
	}
	s.ensureSorted()
	var p [3]float64
	s.ranks([]int64{nearestRank(50, s.n), nearestRank(95, s.n), nearestRank(99, s.n)}, p[:])
	return Summary{
		N:    s.n,
		Mean: s.sum / float64(s.n),
		P50:  p[0],
		P95:  p[1],
		P99:  p[2],
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.0f p95=%.0f p99=%.0f",
		s.N, s.Mean, s.P50, s.P95, s.P99)
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
