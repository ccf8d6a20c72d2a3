// Package metrics is the cycle-level observability layer: hot-path event
// counters (the stats.Metric* registry entries), cycle-bucketed time series,
// per-router NoC instrumentation, a per-access latency decomposition and a
// bounded flight recorder of protocol events. It exposes the internal
// quantities the paper explains its results with — per-hop latency
// contributions, tree-cache hit/miss behavior, teardown backpressure, link
// utilization — that the simulator otherwise computes and throws away.
//
// The package is built around a nil-sink fast path: every probe is either a
// method on a possibly-nil *Collector or a nil check on an instrumentation
// field (network.Mesh.Metrics, protocol.Machine.Metrics), so a simulation
// run without metrics pays one pointer comparison per probe and allocates
// nothing. Probes are purely observational — they never influence routing,
// scheduling or random draws — so enabling metrics leaves simulation results
// byte-identical.
//
// Hot-path operations (counter adds, flight-recorder appends, NoC updates)
// write into preallocated fixed-size arrays and are allocation-free in the
// enabled path too; only the cycle-bucketed series grow, amortized, as
// simulated time advances.
package metrics

import "innetcc/internal/stats"

// GaugeSource is implemented by coherence engines that can report sampled
// gauges: the total occupancy of their per-node metadata structures (tree
// cache lines or directory entries) and the depth of their queued-request
// backlog (teardown/home queues, parked allocations).
type GaugeSource interface {
	MetricsGauges() (occupancy, queueDepth int)
}

// Options sizes a Collector.
type Options struct {
	// FlightSize is the flight-recorder ring capacity in events
	// (default 4096 when <= 0).
	FlightSize int
	// SeriesBucket is the time-series bucket width in cycles, rounded up
	// to a power of two (default 4096 when <= 0). It is also the sampling
	// period for gauges.
	SeriesBucket int64
}

// Collector is the per-simulation metrics sink. A nil *Collector is the
// disabled state: every method is safe to call on nil and is a no-op.
type Collector struct {
	// Flight is the bounded ring of protocol events.
	Flight *Recorder
	// NoC holds per-router, per-port network instrumentation. It is
	// attached by the machine once the mesh shape is known.
	NoC *NoC
	// Breakdown accumulates the per-access latency decomposition.
	Breakdown Breakdown
	// InFlight samples the number of packets inside the network;
	// Occupancy and QueueDepth sample the engine's GaugeSource.
	InFlight   Series
	Occupancy  Series
	QueueDepth Series

	// Counters holds the observational event counters (the
	// stats.Metric* registry entries).
	Counters stats.Counters

	sampleMask int64
}

// New builds an enabled Collector.
func New(o Options) *Collector {
	fs := o.FlightSize
	if fs <= 0 {
		fs = 4096
	}
	b := int64(1)
	for b < o.SeriesBucket {
		b <<= 1
	}
	if o.SeriesBucket <= 0 {
		b = 4096
	}
	return &Collector{
		Flight:     NewRecorder(fs),
		InFlight:   Series{Bucket: b},
		Occupancy:  Series{Bucket: b},
		QueueDepth: Series{Bucket: b},
		sampleMask: b - 1,
	}
}

// Enabled reports whether the collector is live.
func (c *Collector) Enabled() bool { return c != nil }

// Add increments counter k by d. No-op on a nil collector.
func (c *Collector) Add(k stats.Counter, d int64) {
	if c == nil {
		return
	}
	c.Counters.Inc(k, d)
}

// Event appends a protocol event to the flight recorder. No-op on a nil
// collector. All arguments are scalars so the disabled path allocates
// nothing at the call site.
func (c *Collector) Event(cycle int64, kind EventKind, node int16, addr uint64, aux int64) {
	if c == nil {
		return
	}
	c.Flight.Record(cycle, kind, node, addr, aux)
}

// SampleDue reports whether gauges should be sampled this cycle (once per
// series bucket). Callers must have checked the collector is non-nil.
func (c *Collector) SampleDue(now int64) bool { return now&c.sampleMask == 0 }
