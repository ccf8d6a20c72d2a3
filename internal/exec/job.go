// Package exec is the experiment orchestration subsystem: it runs batches
// of independent simulations across worker goroutines with deterministic
// seeding, ordered result collection, per-job failure isolation and an
// optional on-disk result cache.
//
// A Job is a fully declarative simulation spec — protocol kind,
// configuration, trace profile, access count and suite seed — so that two
// properties hold by construction:
//
//   - Determinism: a job's random stream is derived (splitmix64) from the
//     suite seed and the job's trace identity, never from worker order or
//     scheduling, and results are collected by submission index, so a batch
//     produces byte-identical output at any parallelism level.
//   - Cacheability: a job's result is a pure function of its spec, so
//     results can be keyed by a content hash of the spec and replayed from
//     disk across processes and binary rebuilds.
package exec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"innetcc/internal/protocol"
	"innetcc/internal/trace"
)

// DefaultMaxCycles bounds every simulation; a run hitting it indicates a
// protocol bug (or a diverging configuration) and fails that job's row.
const DefaultMaxCycles = 200_000_000

// specVersion invalidates cached results when the result schema or the
// simulation semantics change incompatibly. Bump it on any change that
// alters what a given spec computes.
const specVersion = 8 // v8: invariant failures report as *verify.Error with ID-tagged violations

// Job describes one hermetic simulation: which engine to run, on which
// configuration, over which synthetic trace. Everything the simulation
// observes is derived from these fields.
type Job struct {
	// Key is a display label for reporting ("fig5/bar/tree"); it does not
	// influence the simulation, its seed, or its cache identity.
	Key string

	// Engine selects the coherence engine.
	Engine protocol.EngineKind

	// Config is the machine configuration. Its Seed field is ignored: the
	// run seed is always derived from SuiteSeed and the trace identity.
	Config protocol.Config

	// Profile and Accesses define the synthetic trace.
	Profile  trace.Profile
	Accesses int

	// SuiteSeed is the experiment-level seed all per-job seeds derive
	// from.
	SuiteSeed uint64

	// MaxCycles bounds the simulation (DefaultMaxCycles if zero).
	MaxCycles int64

	// CollectHops records the Section 1 oracle hop comparison (directory
	// protocol only).
	CollectHops bool

	// Metrics requests the cycle-level observability payload
	// (Result.Metrics). Purely observational: enabling it never changes
	// the simulation outcome, only what the result carries.
	Metrics MetricsSpec

	// Faults, when non-empty, is a fault.ParseSpec string arming
	// deterministic fault injection and the protocol's retry knobs. The
	// plan seed derives from the job seed, so a faulty run is as
	// reproducible as a clean one. Empty means no injection.
	Faults string

	// Retries is how many times a transiently failed attempt (hang
	// watchdog, retry budget exhausted) is re-run with a derived sub-seed
	// before the failure is reported. Deterministic failures (panics,
	// validation errors, coherence violations) are never retried.
	Retries int

	// Shards is ignored: the kernel ticks serially.
	//
	// Deprecated: kept so existing callers compile.
	Shards int
}

// SeedKey identifies the job's random stream: jobs over the same trace
// (same benchmark, node count and length) share a seed, so paired runs —
// baseline versus tree on one benchmark, or sweep variants of one
// configuration knob — see the identical trace and think-time draws.
func (j Job) SeedKey() string {
	return fmt.Sprintf("%s/%dn/%da", j.Profile.Name, j.Config.Nodes(), j.Accesses)
}

// Seed returns the derived per-job seed.
func (j Job) Seed() uint64 {
	return DeriveSeed(j.SuiteSeed, j.SeedKey())
}

// DeriveSeed mixes the suite seed with a job key through splitmix64. The
// derivation is a pure function of its inputs — worker identity, scheduling
// and submission order never enter — which is what makes parallel runs
// reproduce serial ones exactly.
func DeriveSeed(suite uint64, key string) uint64 {
	// FNV-1a over the key, then two splitmix64 rounds over the sum.
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	x := suite + h
	x = splitmix(x + 0x9E3779B97F4A7C15)
	x = splitmix(x + 0x9E3779B97F4A7C15)
	if x == 0 {
		x = 0x9E3779B97F4A7C15
	}
	return x
}

func splitmix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hashSpec is the canonical cache identity of a job: every field the
// simulation result depends on, and nothing else (Key and Shards are
// excluded — the label never enters the simulation and Shards is ignored;
// the config's Seed field is zeroed because the run seed derives from
// SuiteSeed).
type hashSpec struct {
	Version     int
	Engine      protocol.EngineKind
	Config      protocol.Config
	Profile     trace.Profile
	Accesses    int
	SuiteSeed   uint64
	MaxCycles   int64
	CollectHops bool
	Metrics     MetricsSpec
	Faults      string
	Retries     int
}

// Hash returns the content hash of the job spec, used as the cache key.
// Two jobs with equal hashes compute identical results.
func (j Job) Hash() string {
	spec := hashSpec{
		Version:     specVersion,
		Engine:      j.Engine,
		Config:      j.Config,
		Profile:     j.Profile,
		Accesses:    j.Accesses,
		SuiteSeed:   j.SuiteSeed,
		MaxCycles:   j.maxCycles(),
		CollectHops: j.CollectHops,
		Metrics:     j.Metrics,
		Faults:      j.Faults,
		Retries:     j.Retries,
	}
	spec.Config.Seed = 0
	b, err := json.Marshal(spec) // struct marshal: deterministic field order
	if err != nil {
		panic("exec: unmarshalable job spec: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (j Job) maxCycles() int64 {
	if j.MaxCycles > 0 {
		return j.MaxCycles
	}
	return DefaultMaxCycles
}

// Dist is a serializable latency distribution: the accumulator moments plus
// the tail percentiles the evaluation reports.
type Dist struct {
	N             int64
	Sum, Min, Max float64
	P50, P95, P99 float64
}

// Mean returns the distribution mean (0 when empty).
func (d Dist) Mean() float64 {
	if d.N == 0 {
		return 0
	}
	return d.Sum / float64(d.N)
}

// HopAgg aggregates the Section 1 oracle hop study: total baseline and
// ideal hop counts over reads and writes.
type HopAgg struct {
	ReadBase, ReadIdeal   float64
	WriteBase, WriteIdeal float64
	Reads, Writes         int64
}

// Result is the outcome of one job. It is what the on-disk cache stores,
// so it must carry everything any experiment driver reads from a run.
type Result struct {
	// Err is non-empty when the job failed (simulation error, cycle-bound
	// exceeded, or a recovered panic); all other fields are then zero
	// except Metrics, which carries the partial capture for post-mortem.
	Err string `json:",omitempty"`

	Cycles    int64 // simulated cycles at quiescence
	LocalHits int64

	Read, Write   Dist
	DeadlockRead  Dist `json:",omitempty"`
	DeadlockWrite Dist `json:",omitempty"`

	Counters map[string]int64 `json:",omitempty"`
	Hops     *HopAgg          `json:",omitempty"`

	// Metrics is the observability payload (present when the job's
	// MetricsSpec enabled it). On failure it still carries whatever the
	// collector captured up to the fault, including the flight ring.
	Metrics *MetricsOut `json:",omitempty"`

	// Attempts is how many times the job was simulated (1 for a clean
	// first run; >1 when transient failures were retried). Transient
	// reports whether the final error was a transient fault-layer failure
	// — a hang or an exhausted retry budget — rather than a deterministic
	// one; it is false on success.
	Attempts  int  `json:",omitempty"`
	Transient bool `json:",omitempty"`

	// Key mirrors the job's display label; Cached reports whether the
	// result was served from the on-disk cache (or shared from a
	// concurrent identical run). Canceled reports that the run was stopped
	// by context cancellation before finishing — a canceled Result is
	// partial and must never be cached. None of these are persisted.
	Key      string `json:"-"`
	Cached   bool   `json:"-"`
	Canceled bool   `json:"-"`
}

// Failed reports whether the job failed.
func (r Result) Failed() bool { return r.Err != "" }

// DeadlockShare returns the percentage of read and write latency spent in
// deadlock detection and recovery (Table 4's metric).
func (r Result) DeadlockShare() (readPct, writePct float64) {
	if r.Read.Sum > 0 {
		readPct = 100 * r.DeadlockRead.Sum / r.Read.Sum
	}
	if r.Write.Sum > 0 {
		writePct = 100 * r.DeadlockWrite.Sum / r.Write.Sum
	}
	return readPct, writePct
}

// Counter returns the named protocol counter (0 if absent).
func (r Result) Counter(name string) int64 { return r.Counters[name] }
