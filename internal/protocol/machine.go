package protocol

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"innetcc/internal/cache"
	"innetcc/internal/fault"
	"innetcc/internal/memory"
	"innetcc/internal/metrics"
	"innetcc/internal/network"
	"innetcc/internal/sim"
	"innetcc/internal/stats"
	"innetcc/internal/trace"
	"innetcc/internal/verify"
)

// DState is a data cache line's MSI state. Invalid lines are simply absent
// from the cache, so only Shared and Modified are represented, matching the
// paper's observation that the data-cache state machine is unchanged by the
// in-network implementation.
type DState uint8

// Data cache line states.
const (
	Shared DState = iota
	Modified
)

func (s DState) String() string {
	if s == Modified {
		return "M"
	}
	return "S"
}

// DataLine is the payload of an L2 data cache line.
type DataLine struct {
	State   DState
	Version uint64
}

// Engine is a coherence protocol implementation: the baseline directory
// protocol or the in-network tree protocol.
type Engine interface {
	// StartMiss begins coherence handling for an access that could not
	// be satisfied by the node's local L2 (a miss, or a write to a
	// Shared line).
	StartMiss(node int, addr uint64, write bool, now int64)
	// Eject receives packets leaving the network at a node's network
	// interface.
	Eject(node int, p *network.Packet, now int64)
	// OnL2Evict is notified when the machine evicts an L2 line to make
	// room, so the protocol can clean up its metadata.
	OnL2Evict(node int, addr uint64, line DataLine, now int64)
	// Quiesced reports whether the engine holds no queued or deferred
	// work.
	Quiesced() bool
}

// Node is one processor tile: a trace-driven CPU and its L2 data cache.
type Node struct {
	ID int
	L2 *cache.Cache[DataLine]

	stream      []trace.Access
	idx         int
	outstanding bool
	issueAt     int64
	nextIssue   int64
	rng         *sim.RNG

	// attempt is the fault-recovery reissue epoch of the outstanding
	// access and retryAt its current reply deadline; both are dead
	// fields unless the fault plan's timeout arms the retry layer.
	attempt uint16
	retryAt int64
}

// Done reports whether the node has issued and completed its whole stream.
func (n *Node) Done() bool { return n.idx >= len(n.stream) && !n.outstanding }

// Pending returns the access the node is currently blocked on.
func (n *Node) Pending() (trace.Access, bool) {
	if !n.outstanding || n.idx >= len(n.stream) {
		return 0, false
	}
	return n.stream[n.idx], true
}

// Machine is the simulated chip multiprocessor: kernel, memory, verifier,
// nodes and the statistics the evaluation reports. The coherence engine is
// attached after construction (it builds the mesh with its own routing
// policy and pipeline depth).
type Machine struct {
	Cfg    Config
	Kernel *sim.Kernel
	Mem    *memory.Memory
	Check  *verify.Checker
	Nodes  []*Node
	Mesh   *network.Mesh

	Lat        stats.LatencyStats
	Counters   stats.Counters
	HomeCounts []int64
	LocalHits  int64

	// ReadSamples/WriteSamples, when non-nil, record every access
	// latency's distribution for percentile reporting (attach with
	// stats.Sampler).
	ReadSamples  *stats.Sampler
	WriteSamples *stats.Sampler

	// Metrics, when non-nil, enables the cycle-level observability layer.
	// It must be set before the engine is attached (AttachEngine wires the
	// mesh-side instrumentation from it). A nil collector is the
	// statistically-free disabled path.
	Metrics *metrics.Collector

	think   int64
	engine  Engine
	nicBusy []int64
	// accNet accumulates, per node, the network time of the packets
	// serving the node's outstanding access (for the latency breakdown).
	accNet []netAcc

	// tid is the machine's kernel ticker id, for park/wake. nextWake is
	// the earliest cycle any node can act — issue its next access, or
	// retry an outstanding one — as of the last Tick that acted, lowered
	// by every due entry pushed since (math.MaxInt64 when no node can):
	// Tick returns immediately before it, and Quiescent parks the machine
	// until then. wakeTimerAt is the target of the wake timer currently
	// scheduled (if any), so repeated park checks don't pile up
	// duplicate timers.
	tid         sim.TickerID
	nextWake    int64
	wakeTimerAt int64

	// due is the due queue: a min-heap holding an entry for every cycle a
	// node was set to act at (see dueEntry). acting is Tick's scratch list
	// of the nodes due this cycle. homes is the node count, cached for
	// Home.
	due    dueQueue
	acting []int
	homes  uint64

	// Fault layer state: the live injector (nil when the spec's plan
	// injects nothing), the plan's recovery keys (zero without a plan),
	// whether timeout/retry is armed, the first fatal fault error
	// (latched by fail; checked by Run's done predicate so the run stops
	// at the failing cycle), and the one-shot guard for the invariant
	// probe.
	faults       *fault.Injector
	recovery     fault.Spec
	retryOn      bool
	fatal        error
	probeStarted bool
	faultsFolded bool

	// msgFree is the message pool's free list and msgsMade the messages
	// allocated in all (see msgpool.go).
	msgFree  []*Msg
	msgsMade int
}

// netAcc is the per-outstanding-access network time attribution: total
// in-network cycles, the analytic contention-free traversal minimum, and the
// measured link-serialization wait.
type netAcc struct {
	net, trav, serial int64
}

// newMachine constructs the machine core from a validated spec; Build
// attaches the engine afterwards.
func newMachine(spec Spec) (*Machine, error) {
	cfg := spec.Config
	think := spec.Think
	if think < 1 {
		think = 1
	}
	k := sim.NewKernel(cfg.Seed)
	if spec.AlwaysTick {
		k.SetAlwaysTick(true)
	}
	m := &Machine{
		Cfg:        cfg,
		Kernel:     k,
		Mem:        memory.New(cfg.MemLatency),
		Check:      verify.New(spec.KeepOrder),
		HomeCounts: make([]int64, cfg.Nodes()),
		homes:      uint64(cfg.Nodes()),
		Metrics:    spec.Metrics,
		think:      think,
		nicBusy:    make([]int64, cfg.Nodes()),
		accNet:     make([]netAcc, cfg.Nodes()),
	}
	if spec.Faults != nil {
		m.recovery = spec.Faults.Spec
		if m.recovery.Injecting() {
			m.faults = &fault.Injector{Plan: *spec.Faults}
		}
	}
	m.retryOn = m.recovery.Timeout > 0
	for i := 0; i < cfg.Nodes(); i++ {
		m.Nodes = append(m.Nodes, &Node{
			ID:     i,
			L2:     cache.New[DataLine](cfg.L2Entries, cfg.L2Ways),
			stream: spec.Trace.PerNode[i],
			rng:    k.RNG().Split(),
		})
		m.due.push(dueEntry{at: 0, node: int32(i)})
	}
	m.tid = k.Register(m)
	return m, nil
}

// AttachEngine wires the coherence engine and its mesh into the machine.
// Engines call this from their constructors.
func (m *Machine) AttachEngine(e Engine, mesh *network.Mesh) {
	m.engine = e
	m.Mesh = mesh
	mesh.EjectFn = e.Eject
	if c := m.Metrics; c != nil {
		c.NoC = metrics.NewNoC(mesh.Nodes(), mesh.InPorts(), mesh.OutPorts())
		mesh.Metrics = c.NoC
		mesh.DeliverFn = m.observeDelivery
	}
	if m.faults != nil {
		mesh.Faults = m.faults
		mesh.DropFn = m.onPacketDrop
	}
	if w := m.Cfg.WatchdogCycles; w > 0 {
		// Progress = packets delivered plus local hits: any cycle in
		// which the system moves forward advances one of these (or
		// fires a kernel event, which the kernel counts itself).
		m.Kernel.SetWatchdog(w, func() int64 { return mesh.DeliveredPackets + m.LocalHits })
	}
}

// Engine returns the attached coherence engine.
func (m *Machine) Engine() Engine { return m.engine }

// Home returns the home node of a line address, as Config.Home does,
// from the node count cached at construction.
func (m *Machine) Home(addr uint64) int { return int(addr % m.homes) }

// Tick implements sim.Ticker: each cycle every CPU that is due acts — an
// idle one whose think time has elapsed issues its next access, and an
// outstanding one whose reply deadline has passed retries. The due queue
// yields exactly those nodes, so Tick never visits a node that has nothing
// to do, and nextWake lets cycles before the earliest due node return at
// once and the machine park until then.
func (m *Machine) Tick(now int64) {
	if c := m.Metrics; c != nil && c.SampleDue(now) {
		c.InFlight.Observe(now, float64(m.Mesh.InFlight))
		if g, ok := m.engine.(metrics.GaugeSource); ok {
			occ, depth := g.MetricsGauges()
			c.Occupancy.Observe(now, float64(occ))
			c.QueueDepth.Observe(now, float64(depth))
		}
	}
	if now < m.nextWake {
		return
	}
	// Nodes act in ascending ID order, as a scan over every node would
	// visit them.
	acting := m.acting[:0]
	for len(m.due) > 0 && m.due[0].at <= now {
		if e := m.due.pop(); m.live(e) {
			acting = append(acting, int(e.node))
		}
	}
	slices.Sort(acting)
	for i, id := range acting {
		if i > 0 && id == acting[i-1] {
			continue
		}
		m.act(m.Nodes[id], now)
	}
	m.acting = acting
	m.nextWake = math.MaxInt64
	for len(m.due) > 0 {
		if e := m.due[0]; m.live(e) {
			m.nextWake = e.at
			break
		}
		m.due.pop()
	}
}

// act is one due node's turn: retry its outstanding access, or issue its
// next access, completing it at once on a local hit.
func (m *Machine) act(n *Node, now int64) {
	if n.outstanding {
		m.retryOutstanding(n, now)
		return
	}
	acc := n.stream[n.idx]
	addr, write := acc.Addr(), acc.Write()
	if line, ok := n.L2.Lookup(addr); ok {
		if !write {
			// Local read hit.
			m.Check.ObserveRead(addr, line.Version, n.ID, now, true)
			m.LocalHits++
			n.idx++
			m.setNextIssue(n, now+m.Cfg.L2Latency+m.thinkTime(n))
			return
		}
		if line.State == Modified {
			// Local write hit: the node already owns the line.
			line.Version = m.Check.CommitWrite(addr, n.ID, now)
			m.LocalHits++
			n.idx++
			m.setNextIssue(n, now+m.Cfg.L2Latency+m.thinkTime(n))
			return
		}
		// Write to a Shared line: upgrade required, falls through to the
		// coherence engine.
	}
	n.outstanding = true
	n.issueAt = now
	if m.retryOn {
		n.attempt = 0
		m.setRetryAt(n, now+m.recovery.Timeout)
	}
	m.HomeCounts[m.Home(addr)]++
	if c := m.Metrics; c != nil {
		aux := int64(0)
		if write {
			aux = 1
		}
		c.Event(now, metrics.EvInject, int16(n.ID), addr, aux)
	}
	m.engine.StartMiss(n.ID, addr, write, now)
}

// dueEntry is one due-queue entry: node may act at cycle at. It is live
// while the node is idle with nextIssue == at and accesses left to issue,
// or outstanding with retry armed and retryAt == at; a node that has moved
// on since the entry was pushed leaves it stale, and Tick drops it.
type dueEntry struct {
	at   int64
	node int32
}

// live reports whether e is still live (see dueEntry).
func (m *Machine) live(e dueEntry) bool {
	n := m.Nodes[e.node]
	if n.outstanding {
		return m.retryOn && n.retryAt == e.at
	}
	return n.idx < len(n.stream) && n.nextIssue == e.at
}

// setNextIssue sets an idle node's next issue cycle and, while it has
// accesses left, queues it to act then.
func (m *Machine) setNextIssue(n *Node, at int64) {
	n.nextIssue = at
	if n.idx < len(n.stream) {
		m.enqueueDue(n, at)
	}
}

// setRetryAt sets an outstanding node's reply deadline and queues it to
// retry then.
func (m *Machine) setRetryAt(n *Node, at int64) {
	n.retryAt = at
	m.enqueueDue(n, at)
}

// enqueueDue queues node n to act at cycle at and lowers nextWake to it.
func (m *Machine) enqueueDue(n *Node, at int64) {
	m.due.push(dueEntry{at: at, node: int32(n.ID)})
	if at < m.nextWake {
		m.nextWake = at
	}
}

// dueQueue is a binary min-heap of due entries ordered by cycle.
type dueQueue []dueEntry

func (h *dueQueue) push(e dueEntry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		parent := (i - 1) / 2
		if s[parent].at <= s[i].at {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *dueQueue) pop() dueEntry {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && s[l].at < s[smallest].at {
			smallest = l
		}
		if r < n && s[r].at < s[smallest].at {
			smallest = r
		}
		if smallest == i {
			break
		}
		s[i], s[smallest] = s[smallest], s[i]
		i = smallest
	}
	return top
}

// Quiescent implements sim.Parker. The machine parks when no node can
// issue before nextWake, scheduling a wake timer for that cycle (or
// parking indefinitely when every node is outstanding or done — engine
// completions wake it). Metrics sampling needs a true every-cycle tick, so
// an instrumented machine never parks.
func (m *Machine) Quiescent() bool {
	if m.Metrics != nil {
		return false
	}
	if m.nextWake == math.MaxInt64 {
		return true
	}
	now := m.Kernel.Now()
	if m.nextWake > now+1 {
		if m.wakeTimerAt != m.nextWake {
			m.Kernel.WakeAt(m.nextWake-now, m.tid)
			m.wakeTimerAt = m.nextWake
		}
		return true
	}
	return false
}

func (m *Machine) thinkTime(n *Node) int64 {
	lo := m.think / 2
	if lo < 1 {
		lo = 1
	}
	return n.rng.Int64Range(lo, m.think+m.think/2)
}

// CompleteAccess is called by the engine when the reply for the node's
// outstanding access reaches it. It records latency (and any
// deadlock-recovery cycles) and lets the CPU proceed; Requirement 4 — a
// node issues its next request only after the previous reply returns — is
// enforced by this hand-off.
func (m *Machine) CompleteAccess(node int, write bool, now, deadlockCycles int64) {
	n := m.Nodes[node]
	if !n.outstanding {
		// A completion with no access outstanding completes some access
		// twice: fail the run at this cycle rather than crash it.
		m.fail(&verify.Error{Cycle: now, Seed: m.Cfg.Seed, Violations: []verify.Violation{
			verify.Violationf(verify.Completes, "completion for node %d with no outstanding access", node)}})
		return
	}
	m.Lat.Record(write, now-n.issueAt)
	if write && m.WriteSamples != nil {
		m.WriteSamples.Add(float64(now - n.issueAt))
	} else if !write && m.ReadSamples != nil {
		m.ReadSamples.Add(float64(now - n.issueAt))
	}
	if deadlockCycles > 0 {
		m.Lat.RecordDeadlock(write, deadlockCycles)
	}
	if c := m.Metrics; c != nil {
		lat := now - n.issueAt
		a := m.accNet[node]
		c.Breakdown.Record(write, lat, a.net, a.trav, a.serial)
		var addr uint64
		if acc, ok := n.Pending(); ok {
			addr = acc.Addr()
		}
		c.Event(now, metrics.EvComplete, int16(node), addr, lat)
		m.accNet[node] = netAcc{}
	}
	n.outstanding = false
	n.idx++
	m.setNextIssue(n, now+m.thinkTime(n))
	if n.idx < len(n.stream) {
		m.Kernel.Wake(m.tid)
	}
}

// observeDelivery is the mesh DeliverFn when metrics are enabled: it
// attributes each delivered packet's network time to the requester whose
// outstanding access it serves. Only the serial request/reply chain is
// attributed (RdReq, WrReq, Fwd, FwdMiss, RdReply, WrReply); parallel
// traffic — invalidations, acknowledgments, teardowns — overlaps the chain
// in time and its transit lands in the controller-service residual instead.
func (m *Machine) observeDelivery(p *network.Packet, consumed bool, now int64) {
	msg, ok := p.Payload.(*Msg)
	if !ok {
		return
	}
	switch msg.Type {
	case RdReq, WrReq, Fwd, FwdMiss, RdReply, WrReply:
	default:
		return
	}
	req := msg.Requester
	if req < 0 || req >= len(m.Nodes) || !m.Nodes[req].outstanding {
		return
	}
	// Contention-free minimum for the path actually taken: each of the
	// hops+1 routers costs pipeline cycles plus one cycle on the following
	// link or the ejection hand-off. Expedited continuations skip their
	// spawning router's pipeline; in-network consumption skips the
	// ejection cycle.
	per := m.Mesh.Pipeline + 1
	trav := int64(p.Hops+1) * per
	if p.Expedited {
		trav -= per - 1
	}
	if consumed {
		trav--
	}
	a := &m.accNet[req]
	a.net += now - p.InjectedAt
	a.trav += trav
	a.serial += p.SerialWait()
}

// NICSchedule runs fn after a service-time occupancy of node's network
// interface: the cache controller at each NIC has one port, so directory
// and data-cache accesses made on behalf of the protocol serialize. (The
// in-network protocol's virtual tree caches are maximally ported inside the
// routers — Section 3.1 — and so never pass through here; only its true
// data-cache and memory work does.)
func (m *Machine) NICSchedule(node int, service int64, fn func()) {
	m.Kernel.Defer(m.nicDelay(node, service), fn)
}

// NICCall is NICSchedule for a kernel callback: call(node, arg) runs after
// the service occupancy. Engines dispatch ejected messages through it with
// handlers bound once at construction, so a dispatch allocates nothing.
func (m *Machine) NICCall(node int, service int64, call func(int, any), arg any) {
	m.Kernel.DeferCall(m.nicDelay(node, service), call, node, arg)
}

// MsgCall adapts a (node, message) handler to a kernel callback taking
// the message as its operand. Engines bind their handlers through it once,
// at construction.
func MsgCall(h func(int, *Msg)) func(int, any) {
	return func(node int, arg any) {
		msg := arg.(*Msg)
		mustBeLive(msg)
		h(node, msg)
	}
}

// nicDelay occupies node's network interface for service cycles after any
// work already queued there and returns the delay until that occupancy
// ends.
func (m *Machine) nicDelay(node int, service int64) int64 {
	now := m.Kernel.Now()
	start := now
	if m.nicBusy[node] > start {
		start = m.nicBusy[node]
	}
	m.nicBusy[node] = start + service
	return start + service - now
}

// OutstandingAddr returns the address and kind of node's in-flight access,
// if any. Protocol engines use it to detect invalidation/reply races.
func (m *Machine) OutstandingAddr(node int) (addr uint64, write bool, ok bool) {
	acc, ok := m.Nodes[node].Pending()
	return acc.Addr(), acc.Write(), ok
}

// InstallLine places a line into node's L2 in the given state, handling the
// eviction of a victim (writeback of dirty data, engine notification) and
// the verifier's copy registry.
func (m *Machine) InstallLine(node int, addr uint64, st DState, version uint64, now int64) {
	n := m.Nodes[node]
	lp, evAddr, evLine, evicted := n.L2.Insert(addr)
	if evicted {
		m.evictCleanup(node, evAddr, evLine, now)
	}
	lp.State = st
	lp.Version = version
	m.Check.RegisterCopy(addr, node)
}

func (m *Machine) evictCleanup(node int, addr uint64, line DataLine, now int64) {
	m.Check.UnregisterCopy(addr, node)
	if line.State == Modified {
		m.Mem.Writeback(addr, line.Version)
	}
	m.Counters.Inc(stats.L2Evictions, 1)
	// The engine callback is deferred one cycle: it can trigger protocol
	// work that installs further lines (e.g. the tree protocol's victim
	// caching after an instant teardown), and running that synchronously
	// would re-enter InstallLine and invalidate its line pointer.
	m.Kernel.Defer(1, func() {
		m.engine.OnL2Evict(node, addr, line, m.Kernel.Now())
	})
}

// InvalidateLine removes addr from node's L2 (if present), writing dirty
// data back, and returns the line it held.
func (m *Machine) InvalidateLine(node int, addr uint64, now int64) (DataLine, bool) {
	n := m.Nodes[node]
	line, ok := n.L2.Invalidate(addr)
	if !ok {
		return DataLine{}, false
	}
	m.Check.UnregisterCopy(addr, node)
	if line.State == Modified {
		m.Mem.Writeback(addr, line.Version)
	}
	return line, true
}

// PeekLine inspects node's L2 without LRU effects.
func (m *Machine) PeekLine(node int, addr uint64) (*DataLine, bool) {
	return m.Nodes[node].L2.Peek(addr)
}

// NewPacket builds a network packet for msg from src to dst, sizing it by
// whether the message carries data.
func (m *Machine) NewPacket(src, dst int, msg *Msg) *network.Packet {
	mustBeLive(msg)
	flits := m.Cfg.CtrlFlits
	if msg.Type.IsData() {
		flits = m.Cfg.DataFlits
	}
	p := m.Mesh.AllocPacket()
	p.ID = m.Mesh.NextIDFor(src)
	p.Src = src
	p.Dst = dst
	p.Flits = flits
	p.Payload = msg
	// Coherence requests can be reissued from scratch by the fault
	// layer's retry; everything else (replies, invalidations, teardowns)
	// carries protocol state that cannot be replayed.
	p.Retryable = msg.Type == RdReq || msg.Type == WrReq
	return p
}

// AllDone reports whether every CPU has drained its stream.
func (m *Machine) AllDone() bool {
	for _, n := range m.Nodes {
		if !n.Done() {
			return false
		}
	}
	return true
}

// Quiesced reports full-system quiescence: CPUs drained, network empty,
// engine queues empty, no pending events. Run polls it every cycle, so the
// checks that almost always fail mid-run come first.
func (m *Machine) Quiesced() bool {
	return m.Kernel.Pending() == 0 && m.Mesh.InFlight == 0 && m.AllDone() && m.engine.Quiesced()
}

// Run executes the simulation until quiescence, a fatal fault-layer error
// (retry exhaustion, invariant violation), a watchdog trip, or maxCycles.
// A run that fails to quiesce returns a typed *fault.HangError carrying
// the reproducer seed and the stuck report; verification violations
// return a *verify.Error naming the broken invariants.
func (m *Machine) Run(maxCycles int64) error {
	if m.engine == nil {
		return fmt.Errorf("protocol: no engine attached")
	}
	_, err := m.RunSegment(math.MaxInt64, m.Kernel.Now()+maxCycles)
	return err
}

// RunSegment advances the simulation until it completes — quiescence, a
// fatal fault-layer error, a watchdog trip, or the limit cycle — or until
// the clock reaches stopAt, whichever comes first. Both bounds are absolute
// cycles; limit is the run's overall cycle budget and must be the same on
// every segment of one run. A (false, nil) return means the run paused at
// stopAt and the caller should call RunSegment again to continue; (true,
// err) carries the same terminal semantics as Run.
//
// A paused run stops with the clock exactly at stopAt, even when an idle
// stretch spans it: the fast-forward lands on stopAt and resumes from
// there. Pausing is pure observation: the kernel steps the same cycles
// whether or not a run is split, and events fire when they would have, so
// a run split across any sequence of RunSegment calls performs exactly the
// step sequence of a single Run and is byte-identical to it. This is what
// progress and cancellation hang off: internal/exec pauses every million
// or so cycles to check its context and report progress, without
// perturbing the simulation.
func (m *Machine) RunSegment(stopAt, limit int64) (done bool, err error) {
	if m.engine == nil {
		return true, fmt.Errorf("protocol: no engine attached")
	}
	m.startInvariantProbe()
	reached := m.Kernel.RunUntil(func() bool {
		return m.fatal != nil || m.Kernel.Now() >= stopAt || m.Quiesced()
	}, min(stopAt, limit)-m.Kernel.Now())
	if c := m.Metrics; c != nil && c.NoC != nil {
		c.NoC.Cycles = m.Kernel.Now()
	}
	if m.fatal == nil && reached && !m.Quiesced() &&
		m.Kernel.Now() < limit && !m.Kernel.Hung() {
		return false, nil // paused at stopAt; the run itself is not over
	}
	m.foldFaultCounters()
	if m.fatal != nil {
		return true, m.fatal
	}
	if !m.Quiesced() {
		return true, &fault.HangError{
			Cycle:    m.Kernel.Now(),
			Seed:     m.Cfg.Seed,
			Watchdog: m.Kernel.Hung(),
			Report:   m.stuckReport(),
		}
	}
	if v := m.Check.Violations(); len(v) > 0 {
		return true, &verify.Error{Cycle: m.Kernel.Now(), Seed: m.Cfg.Seed, Violations: v}
	}
	return true, nil
}

func (m *Machine) stuckReport() string {
	waiting := 0
	var sample string
	for _, n := range m.Nodes {
		if !n.Done() {
			waiting++
			if acc, ok := n.Pending(); ok && sample == "" {
				sample = fmt.Sprintf("node %d blocked on addr %#x write=%v", n.ID, acc.Addr(), acc.Write())
			}
		}
	}
	return fmt.Sprintf("%d nodes unfinished, %d packets in flight, engine quiesced=%v, %d events pending; %s; router queues: %s",
		waiting, m.Mesh.InFlight, m.engine.Quiesced(), m.Kernel.Pending(), sample, m.queueOccupancy())
}

// queueOccupancy renders the non-empty router input queues, largest first,
// capped at eight entries.
func (m *Machine) queueOccupancy() string {
	const limit = 8
	type occ struct{ node, queued int }
	var occs []occ
	for _, r := range m.Mesh.Routers {
		if q := r.QueuedPackets(); q > 0 {
			occs = append(occs, occ{r.NodeID, q})
		}
	}
	if len(occs) == 0 {
		return "all empty"
	}
	sort.Slice(occs, func(i, j int) bool {
		if occs[i].queued != occs[j].queued {
			return occs[i].queued > occs[j].queued
		}
		return occs[i].node < occs[j].node
	})
	var b strings.Builder
	for i, o := range occs {
		if i >= limit {
			fmt.Fprintf(&b, " +%d more", len(occs)-i)
			break
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "n%d=%d", o.node, o.queued)
	}
	return b.String()
}
