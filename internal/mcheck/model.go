// Package mcheck is the repository's stand-in for the paper's Murφ
// verification (Section 2.4): an explicit-state model checker that
// exhaustively explores a reduced model of the in-network MSI protocol and
// checks coherence and sequential-consistency invariants in every reachable
// state.
//
// The reduced model mirrors the paper's: a small fabric, a single cache
// line, a bounded set of concurrent operations ("multiple concurrent reads
// and up to two concurrent writes"), message-type-accurate protocol
// transitions (RD_REQ, RD_REPLY, WR_REQ, WR_REPLY, TEARDOWN, TD_ACK), FIFO
// channels between adjacent routers, and atomic above-network data
// accesses. Tree cache capacity conflicts, evictions and the timeout
// recovery they require are outside the backbone being checked, exactly as
// in the paper's Murφ spec.
//
// Unlike the paper's fixed 2×2 run, the fabric (any network.Topology —
// mesh, torus or ring) and the concurrent op program are parameters of
// Checker, states are deduplicated through a 64-bit canonical hash taken
// as the minimum over the model's symmetry group (mesh axis flips that fix
// the home node, composed with permutations of interchangeable ops; on
// fabrics without a usable flip the group gracefully shrinks to the
// op-permutation subgroup), and the BFS can fan a level out across worker
// goroutines. Together these push exhaustive exploration from the paper's
// 2×2 bound to 3×3 meshes with several concurrent ops.
package mcheck

import (
	"fmt"
	"sort"
	"sync"

	"innetcc/internal/network"
	"innetcc/internal/verify"
)

// Directions, matching the full simulator's encoding: dirN..dirW are the
// numeric values of network.North..West (a ring only uses the first two,
// its CW/CCW ports), and dirNone equals int(network.Local).
const (
	dirN = iota
	dirS
	dirE
	dirW
	dirNone
)

// neighbor, arrival, routeTo and dist are the model's view of the fabric,
// all answered by the Topology. dirNone (== int(network.Local)) flows
// through unchanged: NextHop returns Local exactly at the destination.

func (c *Checker) neighbor(n, d int) int {
	nb, ok := c.Topo.Neighbor(n, network.Dir(d))
	if !ok {
		return -1
	}
	return nb
}

func (c *Checker) arrival(d int) int { return int(c.Topo.Arrival(network.Dir(d))) }

func (c *Checker) routeTo(from, to int) int { return int(c.Topo.NextHop(from, to)) }

func (c *Checker) dist(a, b int) int { return c.Topo.Dist(a, b) }

// Message types.
const (
	mRdReq = iota
	mRdReply
	mWrReq
	mWrReply
	mTeardown
	mTdAck
)

var msgNames = [...]string{"RD_REQ", "RD_REPLY", "WR_REQ", "WR_REPLY", "TEARDOWN", "TD_ACK"}

// msg is a protocol message in flight. Op identifies the operation it
// serves (-1 for teardowns/acks). Ver is the data version carried by read
// replies. Root marks fresh-tree replies. Built mirrors the simulator's
// BuiltLast.
type msg struct {
	Type  int8
	Op    int8
	Ver   int8
	Root  bool
	Built bool
	// HomeServe marks a request that owns the home-serve window (the
	// model's rendering of the simulator's Msg.HomeServe).
	HomeServe bool
}

// treeLine is the reduced virtual tree cache line.
type treeLine struct {
	Valid    bool
	Touched  bool
	IsRoot   bool
	RootDir  int8
	Links    [4]bool
	LocalV   bool // local data copy valid
	Anchored bool // outstanding-request bit: a reply anchored this line
}

func (t *treeLine) linkCount() int {
	c := 0
	for _, b := range t.Links {
		if b {
			c++
		}
	}
	return c
}

func (t *treeLine) onlyLink() int {
	for d, b := range t.Links {
		if b {
			return d
		}
	}
	return dirNone
}

// Data cache states.
const (
	dInvalid = iota
	dShared
	dModified
)

// Op phases.
const (
	opNotIssued = iota
	opInFlight
	opDone
)

// Op is one memory operation of the model's concurrent program.
type Op struct {
	Node  int
	Write bool
}

// opState tracks an operation's progress and, for reads, the version it
// sampled.
type opState struct {
	Phase   int8
	Sampled int8
}

// state is one global protocol state. Channels are FIFO per directed mesh
// edge (flattened node*4+dir); nicq are the above-network service queues;
// homeq holds requests queued at the home during teardown; pend marks the
// home-serve serialization window.
type state struct {
	lines []treeLine
	data  []int8 // dInvalid/dShared/dModified
	dver  []int8
	memV  int8
	wrote int8 // committed writes so far
	ops   []opState
	chans [][]msg // outgoing FIFO, indexed node*4+dir
	nicq  [][]msg
	homeq []msg // queued while the tree is being torn down
	pendq []msg // queued while a home serve is in flight
	pend  bool
}

func (s *state) clone() *state {
	c := &state{
		lines: append([]treeLine(nil), s.lines...),
		data:  append([]int8(nil), s.data...),
		dver:  append([]int8(nil), s.dver...),
		memV:  s.memV,
		wrote: s.wrote,
		ops:   append([]opState(nil), s.ops...),
		chans: make([][]msg, len(s.chans)),
		nicq:  make([][]msg, len(s.nicq)),
		homeq: append([]msg(nil), s.homeq...),
		pendq: append([]msg(nil), s.pendq...),
		pend:  s.pend,
	}
	for i, q := range s.chans {
		if len(q) > 0 {
			c.chans[i] = append([]msg(nil), q...)
		}
	}
	for i, q := range s.nicq {
		if len(q) > 0 {
			c.nicq[i] = append([]msg(nil), q...)
		}
	}
	return c
}

// Mutation is a bitmask of deliberate protocol bugs the checker can inject
// into the model. Each one removes a protection the real protocol relies
// on; the mutation test suite proves the exhaustive search detects every
// one of them (the same role the paper's Murφ model played during protocol
// design). The names pair 1:1 with internal/treecc's engine-side Bug bits
// so the litmus fuzzer can assert the full simulator catches the same
// seeded bugs.
type Mutation uint32

const (
	// MutDropAckHold removes the outstanding-request acknowledgment hold:
	// a touched line with a pending completion collapses immediately.
	MutDropAckHold Mutation = 1 << iota
	// MutAcceptStaleReply installs data from replies that arrive into a
	// torn-down completion window (the model's rendering of accepting a
	// reply from an abandoned reissue epoch). It removes both the anchor
	// generation check and the acknowledgment hold that together close
	// that window.
	MutAcceptStaleReply
	// MutDropTdAck silently drops TD_ACK messages at tree collapse.
	MutDropTdAck
	// MutEarlyHomeRelease completes the home's teardown — releasing the
	// queued requests — before the subtree acknowledgments arrive (wrong
	// teardown order).
	MutEarlyHomeRelease
	// MutSkipInvalidate leaves the local data copy valid when a teardown
	// passes through a sharer.
	MutSkipInvalidate
	// MutLostWriteback drops the dirty version instead of folding it into
	// memory when a Modified copy is invalidated.
	MutLostWriteback
	// MutDoubleGrant ignores the home-serve serialization window, letting
	// the home serve a second request while one is already in flight.
	MutDoubleGrant
)

// Result summarizes a model-checking run.
type Result struct {
	// States counts distinct canonical states discovered (after symmetry
	// reduction).
	States int
	// Explored counts states actually expanded (dequeued and given to the
	// transition relation); it trails States only when the run stops early.
	Explored int
	// Transitions counts generated successor states, including those that
	// fold into an already-visited canonical class.
	Transitions int
	// PeakFrontier is the largest BFS level encountered.
	PeakFrontier int
	// Truncated reports that MaxStates stopped the search before the
	// frontier drained; the verdict is then only partial.
	Truncated bool
	// Violations lists invariant failures (empty on success).
	Violations []verify.Violation
	// Deadlocks lists non-terminal states with no enabled transition; a
	// deadlock breaks the completes invariant.
	Deadlocks []string
	// Terminals counts fully drained end states.
	Terminals int
}

// Checker runs the exploration.
type Checker struct {
	// Topo is the fabric the model routes over: NewMesh sets a mesh, and
	// NewTopology (or setting Topo directly) checks the protocol over any
	// fabric — torus wraparound routes, ring two-port routers — with the
	// same transition relation.
	Topo      network.Topology
	Home      int
	Ops       []Op
	MaxStates int

	// Workers fans each BFS level out across this many goroutines
	// (<=1 explores serially). Results are merged in deterministic
	// frontier order, so state/transition counts are identical at any
	// worker count.
	Workers int
	// Symmetry canonicalizes states under the model's automorphism group
	// before visited-set lookup. Safe to leave on: the group is the
	// identity when the configuration has no usable symmetry.
	Symmetry bool
	// TraceEdges keeps a parent edge per canonical state so violations
	// and deadlocks carry counterexample traces. Costs memory
	// proportional to the state count; switch off for large runs.
	TraceEdges bool

	// Mut injects the selected protocol bugs into the model.
	Mut Mutation

	nodes      int
	group      []symElem
	violations []verify.Violation
	deadlocks  []string
}

func (c *Checker) has(m Mutation) bool { return c.Mut&m != 0 }

func (c *Checker) ackHoldOff() bool {
	return c.has(MutDropAckHold) || c.has(MutAcceptStaleReply)
}

func (c *Checker) anchorOff() bool {
	return c.has(MutAcceptStaleReply)
}

// New returns a checker for the given concurrent program on the paper's
// 2×2 mesh. home is the line's home node.
func New(home int, ops []Op) *Checker {
	return NewMesh(2, 2, home, ops)
}

// NewMesh returns a checker for a w×h mesh. Symmetry reduction and
// counterexample traces are on by default; Workers defaults to serial.
func NewMesh(w, h, home int, ops []Op) *Checker {
	return &Checker{
		Topo:       network.Mesh2D{W: w, H: h},
		Home:       home,
		Ops:        ops,
		MaxStates:  2_000_000,
		Workers:    1,
		Symmetry:   true,
		TraceEdges: true,
	}
}

// NewTopology returns a checker over an arbitrary fabric, with the same
// defaults as NewMesh. Symmetry reduction degrades gracefully: axis flips
// apply only to meshes, so other fabrics canonicalize under op
// permutations alone.
func NewTopology(t network.Topology, home int, ops []Op) *Checker {
	c := NewMesh(1, 1, home, ops)
	c.Topo = t
	return c
}

// DefaultProgram mirrors the paper's Murφ bound: concurrent reads on two
// nodes and two concurrent writes.
func DefaultProgram() (home int, ops []Op) {
	return 0, []Op{
		{Node: 1, Write: false},
		{Node: 2, Write: false},
		{Node: 3, Write: true},
		{Node: 1, Write: true},
	}
}

// resolve reads the node count off the fabric. Idempotent; Run and
// buildGroup both call it.
func (c *Checker) resolve() {
	if c.Topo == nil {
		panic("mcheck: no fabric")
	}
	c.nodes = c.Topo.Nodes()
}

// fstate is a frontier entry: the state plus its canonical hash (the
// visited-set identity, reused for trace parent edges).
type fstate struct {
	s *state
	h uint64
}

// edge is one parent link of the exploration DAG, kept when TraceEdges is
// on so counterexamples can be replayed as a label sequence.
type edge struct {
	parent uint64
	label  string
}

// candidate is a successor produced by a worker, pending the global
// visited-set merge.
type candidate struct {
	s      *state
	h      uint64
	parent uint64
	label  string
}

// workerOut collects one worker's share of a BFS level.
type workerOut struct {
	cand        []candidate
	transitions int
	explored    int
	terminals   int
	violations  []verify.Violation
	deadlocks   []string
}

const (
	maxViolations = 10
	maxDeadlocks  = 2
)

func (c *Checker) fail(inv verify.Invariant, format string, args ...interface{}) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, verify.Violationf(inv, format, args...))
	}
}

// Run explores the full state space with a level-synchronous BFS and
// returns the result. With Workers > 1 each level is expanded in
// parallel; the merge into the visited set happens serially in frontier
// order, so the result is independent of the worker count.
func (c *Checker) Run() Result {
	c.resolve()
	if c.nodes < 1 {
		panic("mcheck: empty fabric")
	}
	if c.Home < 0 || c.Home >= c.nodes {
		panic("mcheck: home outside fabric")
	}
	for _, op := range c.Ops {
		if op.Node < 0 || op.Node >= c.nodes {
			panic("mcheck: op node outside fabric")
		}
	}
	c.buildGroup()

	// Channel arrays stay network.MaxDegree wide on every fabric; ports a
	// topology does not wire (a ring's slots 2 and 3) simply never carry
	// messages, so the hash layout is degree-independent.
	init := &state{
		lines: make([]treeLine, c.nodes),
		data:  make([]int8, c.nodes),
		dver:  make([]int8, c.nodes),
		ops:   make([]opState, len(c.Ops)),
		chans: make([][]msg, c.nodes*4),
		nicq:  make([][]msg, c.nodes),
	}
	for n := 0; n < c.nodes; n++ {
		init.lines[n].RootDir = dirNone
	}

	visited := newHashSet(1 << 14)
	h0 := c.canonicalHash(init)
	visited.Add(h0)
	var parents map[uint64]edge
	if c.TraceEdges {
		parents = map[uint64]edge{}
	}

	workers := c.Workers
	if workers < 1 {
		workers = 1
	}

	res := Result{States: 1}
	frontier := []fstate{{init, h0}}
	for len(frontier) > 0 && len(c.violations) == 0 && !res.Truncated {
		if len(frontier) > res.PeakFrontier {
			res.PeakFrontier = len(frontier)
		}
		w := workers
		if w > len(frontier) {
			w = len(frontier)
		}
		outs := make([]workerOut, w)
		if w == 1 {
			outs[0] = c.expandChunk(frontier, visited, parents)
		} else {
			var wg sync.WaitGroup
			per := (len(frontier) + w - 1) / w
			for i := 0; i < w; i++ {
				lo := i * per
				hi := lo + per
				if lo > len(frontier) {
					lo = len(frontier)
				}
				if hi > len(frontier) {
					hi = len(frontier)
				}
				wg.Add(1)
				go func(i, lo, hi int) {
					defer wg.Done()
					outs[i] = c.expandChunk(frontier[lo:hi], visited, parents)
				}(i, lo, hi)
			}
			wg.Wait()
		}

		var next []fstate
		for i := range outs {
			o := &outs[i]
			res.Transitions += o.transitions
			res.Explored += o.explored
			res.Terminals += o.terminals
			for _, v := range o.violations {
				if len(c.violations) < maxViolations {
					c.violations = append(c.violations, v)
				}
			}
			for _, d := range o.deadlocks {
				if len(c.deadlocks) < maxDeadlocks {
					c.deadlocks = append(c.deadlocks, d)
				}
			}
			for _, cd := range o.cand {
				if res.Truncated || !visited.Add(cd.h) {
					continue
				}
				res.States++
				if parents != nil {
					parents[cd.h] = edge{parent: cd.parent, label: cd.label}
				}
				next = append(next, fstate{cd.s, cd.h})
				if res.States >= c.MaxStates {
					res.Truncated = true
				}
			}
		}
		frontier = next
	}
	res.Violations = c.violations
	res.Deadlocks = c.deadlocks
	return res
}

// expandChunk runs the transition relation over one slice of the frontier.
// It works on a shallow copy of the Checker so invariant failures collect
// into a worker-local slice; visited and parents are only read (the merge
// phase is the sole writer, between levels).
func (c *Checker) expandChunk(chunk []fstate, visited *hashSet, parents map[uint64]edge) workerOut {
	wc := *c
	wc.violations = nil
	wc.deadlocks = nil
	var out workerOut
	trace := func(h uint64) string {
		if parents == nil {
			return "(traces disabled)"
		}
		var labels []string
		for {
			e, ok := parents[h]
			if !ok {
				break
			}
			labels = append(labels, e.label)
			h = e.parent
		}
		s := ""
		for i := len(labels) - 1; i >= 0; i-- {
			s += labels[i] + "; "
		}
		return s
	}
	for _, f := range chunk {
		out.explored++
		vpre := len(wc.violations)
		succs := wc.successors(f.s)
		for i := vpre; i < len(wc.violations); i++ {
			wc.violations[i].Detail += "\n  trace: " + trace(f.h)
		}
		if len(succs) == 0 {
			if wc.isTerminal(f.s) {
				out.terminals++
				tpre := len(wc.violations)
				wc.checkTerminal(f.s)
				for i := tpre; i < len(wc.violations); i++ {
					wc.violations[i].Detail += "\n  trace: " + trace(f.h)
				}
			} else if len(wc.deadlocks) < maxDeadlocks {
				wc.deadlocks = append(wc.deadlocks, wc.describe(f.s)+"\n  trace: "+trace(f.h))
			}
			continue
		}
		for _, ns := range succs {
			out.transitions++
			pre := len(wc.violations)
			wc.checkInvariants(ns.s)
			if len(wc.violations) > pre {
				wc.violations[len(wc.violations)-1].Detail += "\n  trace: " + trace(f.h) + ns.label
			}
			h := wc.canonicalHash(ns.s)
			if visited.Contains(h) {
				continue
			}
			out.cand = append(out.cand, candidate{s: ns.s, h: h, parent: f.h, label: ns.label})
		}
	}
	out.violations = wc.violations
	out.deadlocks = wc.deadlocks
	return out
}

func (c *Checker) isTerminal(s *state) bool {
	for _, o := range s.ops {
		if o.Phase != opDone {
			return false
		}
	}
	for _, q := range s.chans {
		if len(q) > 0 {
			return false
		}
	}
	for _, q := range s.nicq {
		if len(q) > 0 {
			return false
		}
	}
	return len(s.homeq) == 0 && len(s.pendq) == 0 && !s.pend
}

func (c *Checker) describe(s *state) string {
	out := ""
	for n := 0; n < c.nodes; n++ {
		t := &s.lines[n]
		if t.Valid {
			out += fmt.Sprintf("n%d{links=%v root=%d isRoot=%v touched=%v lv=%v} ", n, t.Links, t.RootDir, t.IsRoot, t.Touched, t.LocalV)
		}
	}
	var msgs []string
	for n := 0; n < c.nodes; n++ {
		for d := 0; d < 4; d++ {
			for _, m := range s.chans[n*4+d] {
				msgs = append(msgs, fmt.Sprintf("%s@%d->%d", msgNames[m.Type], n, d))
			}
		}
		for _, m := range s.nicq[n] {
			msgs = append(msgs, fmt.Sprintf("nic%d:%s", n, msgNames[m.Type]))
		}
	}
	sort.Strings(msgs)
	return out + fmt.Sprint(msgs, " homeq=", len(s.homeq), " pend=", s.pend)
}
