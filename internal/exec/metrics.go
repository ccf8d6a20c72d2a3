package exec

import (
	"slices"

	"innetcc/internal/metrics"
	"innetcc/internal/network"
)

// MetricsSpec is a job's observability request. It is part of the job's
// cache identity (enabling metrics changes what the Result carries, never
// what the simulation computes: all probes are purely observational, so
// latency tables and counters are byte-identical with metrics on or off).
type MetricsSpec struct {
	// Enabled attaches a metrics.Collector to the run and fills
	// Result.Metrics.
	Enabled bool

	// FlightDump includes the flight-recorder event ring in the result
	// even when the job succeeds. Failed jobs always carry the ring: the
	// recorded tail is exactly the post-mortem one wants.
	FlightDump bool

	// FlightSize and SeriesBucket override the collector defaults
	// (metrics.Options) when positive.
	FlightSize   int
	SeriesBucket int64
}

// LinkMetrics is one router output port's aggregate NoC counters.
type LinkMetrics struct {
	// Dir names the port (N/S/E/W/L for the ejection port).
	Dir string

	// BusyCycles is the number of cycles the link spent serializing flits;
	// divided by MetricsOut.Cycles it is the link utilization.
	BusyCycles int64

	// Grants counts switch-allocation wins on this port.
	Grants int64

	// SerialWait is the total head-packet cycles spent waiting for an
	// in-progress serialization on this port to finish.
	SerialWait int64
}

// RouterMetrics is one router's aggregate NoC counters.
type RouterMetrics struct {
	Node int

	// PolicyStalls counts protocol-engine Stall decisions taken at this
	// router (tree-cache busy lines, home-node conflicts).
	PolicyStalls int64

	// Links holds per-output-port counters, indexed by network.Dir.
	Links []LinkMetrics

	// QueueSum is the per-input-port occupancy integral (queue length
	// summed over every cycle); divided by MetricsOut.Cycles it is the
	// mean queue depth. Input ports 0-3 are the mesh directions, 4 the
	// injection port, 5 the protocol-spawn port.
	QueueSum []int64
}

// Util returns the port's link utilization over the run (0 when the run
// recorded no cycles).
func (l LinkMetrics) Util(cycles int64) float64 {
	if cycles <= 0 {
		return 0
	}
	return float64(l.BusyCycles) / float64(cycles)
}

// MetricsOut is the serializable observability payload of one job: the
// latency breakdown, protocol event counters, per-router NoC aggregates,
// cycle-bucketed time series, and (for failed or FlightDump jobs) the
// flight-recorder tail.
type MetricsOut struct {
	// Cycles is the simulated cycle count the NoC aggregates cover.
	Cycles int64

	// Read and Write decompose completed-access latency into queueing,
	// serialization, traversal and controller-service cycle sums; each
	// class's components sum exactly to its Total.
	Read, Write metrics.BreakdownClass

	// Counters holds the named protocol event totals (tree_hit,
	// tree_miss, hops_saved, dir_fwd, ...); zero counters are omitted.
	Counters map[string]int64 `json:",omitempty"`

	// Routers holds per-router NoC aggregates, indexed by node ID.
	Routers []RouterMetrics `json:",omitempty"`

	// Cycle-bucketed time series: packets in flight, engine-specific
	// occupancy (directory entries / tree-cache lines) and request queue
	// depth.
	InFlight   []metrics.SeriesPoint `json:",omitempty"`
	Occupancy  []metrics.SeriesPoint `json:",omitempty"`
	QueueDepth []metrics.SeriesPoint `json:",omitempty"`

	// Flight is the flight-recorder ring, oldest first; FlightTotal is
	// the number of events recorded over the whole run (>= len(Flight)
	// when the ring wrapped).
	Flight      []metrics.Event `json:",omitempty"`
	FlightTotal uint64          `json:",omitempty"`
}

// collectorFor builds the job's collector, or nil when metrics are off.
func collectorFor(spec MetricsSpec) *metrics.Collector {
	if !spec.Enabled {
		return nil
	}
	return metrics.New(metrics.Options{
		FlightSize:   spec.FlightSize,
		SeriesBucket: spec.SeriesBucket,
	})
}

// metricsOut folds a collector into the serializable result payload.
// includeFlight attaches the event ring (FlightDump jobs and failures).
func metricsOut(c *metrics.Collector, includeFlight bool) *MetricsOut {
	if c == nil {
		return nil
	}
	out := &MetricsOut{
		Read:       c.Breakdown.Read,
		Write:      c.Breakdown.Write,
		InFlight:   c.InFlight.Points(),
		Occupancy:  c.Occupancy.Points(),
		QueueDepth: c.QueueDepth.Points(),
	}
	for _, n := range c.Counters.Names() {
		if v := c.Counters.Get(n); v != 0 {
			if out.Counters == nil {
				out.Counters = make(map[string]int64)
			}
			out.Counters[n] = v
		}
	}
	if n := c.NoC; n != nil {
		out.Cycles = n.Cycles
		out.Routers = make([]RouterMetrics, n.Routers)
		for r := 0; r < n.Routers; r++ {
			rm := RouterMetrics{
				Node:         r,
				PolicyStalls: n.PolicyStalls[r],
				Links:        make([]LinkMetrics, n.OutPorts),
				QueueSum:     slices.Clone(n.QueueSum[n.InIdx(r, 0):n.InIdx(r+1, 0)]),
			}
			for p := 0; p < n.OutPorts; p++ {
				oi := n.OutIdx(r, p)
				rm.Links[p] = LinkMetrics{
					Dir:        network.Dir(p).String(),
					BusyCycles: n.LinkBusy[oi],
					Grants:     n.Grants[oi],
					SerialWait: n.SerialWait[oi],
				}
			}
			out.Routers[r] = rm
		}
	}
	if includeFlight {
		out.Flight = c.Flight.Events()
		out.FlightTotal = c.Flight.Total()
	}
	return out
}
