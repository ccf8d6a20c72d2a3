package metrics

// NoC holds per-router network instrumentation in flattened arrays indexed
// by (router, port). The router hot loop updates the slices directly
// behind a single nil check on the mesh's Metrics field, so the disabled
// path costs one comparison per router tick and the enabled path never
// allocates.
type NoC struct {
	Routers  int
	InPorts  int
	OutPorts int

	// LinkBusy[OutIdx(r,p)] accumulates flit-cycles each output link was
	// held by granted packets; divided by Cycles it is link utilization.
	LinkBusy []int64
	// Grants[OutIdx(r,p)] counts output-arbitration grants.
	Grants []int64
	// SerialWait[OutIdx(r,p)] accumulates head-packet cycles spent
	// waiting for the output link to finish serializing a previous
	// packet's flits (arbitration stalls).
	SerialWait []int64
	// QueueSum[InIdx(r,p)] integrates input FIFO occupancy over time
	// (packet-cycles); divided by Cycles it is mean queue depth.
	QueueSum []int64
	// PolicyStalls[r] counts head-packet cycles the routing policy held a
	// packet in place (the in-network protocol's allocation stalls).
	PolicyStalls []int64

	// Cycles is the simulated-cycle denominator for the integrals above;
	// the machine sets it when the run ends.
	Cycles int64
}

// NewNoC sizes the arrays for a mesh of the given shape.
func NewNoC(routers, inPorts, outPorts int) *NoC {
	return &NoC{
		Routers:      routers,
		InPorts:      inPorts,
		OutPorts:     outPorts,
		LinkBusy:     make([]int64, routers*outPorts),
		Grants:       make([]int64, routers*outPorts),
		SerialWait:   make([]int64, routers*outPorts),
		QueueSum:     make([]int64, routers*inPorts),
		PolicyStalls: make([]int64, routers),
	}
}

// OutIdx flattens (router, output port).
func (n *NoC) OutIdx(r, p int) int { return r*n.OutPorts + p }

// InIdx flattens (router, input port).
func (n *NoC) InIdx(r, p int) int { return r*n.InPorts + p }

// Util returns output link (r,p)'s utilization in [0,1].
func (n *NoC) Util(r, p int) float64 {
	if n.Cycles == 0 {
		return 0
	}
	return float64(n.LinkBusy[n.OutIdx(r, p)]) / float64(n.Cycles)
}
