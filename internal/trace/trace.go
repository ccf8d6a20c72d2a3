// Package trace generates the synthetic memory-access traces that stand in
// for the paper's Bochs-captured SPLASH-2 traces (see DESIGN.md,
// "Substitutions").
//
// The coherence protocols only observe a per-node stream of (address,
// read/write) pairs, so a trace is characterized by the statistics the paper
// itself uses to explain its results (Sections 3.1 and 3.4):
//
//   - working-set size (drives capacity behaviour and off-chip traffic),
//   - read/write mix and injection rate,
//   - the dynamic sharing degree: how many valid copies a line has when it
//     is re-referenced (the paper reports >90% of trees span 1-2 copies,
//     with per-benchmark averages from 1.07 (lu, radix) to 1.33
//     (water-spatial)),
//   - the home-node distribution skew (RMS deviation from uniform, which
//     the paper uses to explain write-latency variation), and
//   - temporal locality (a working window of hot lines).
//
// Shared-memory benchmarks exercise coherence through migratory and
// producer-consumer patterns: one thread writes a line, nearby threads read
// it while it is still cached, then ownership migrates. The generator
// produces exactly these episodes — a write by one group member followed by
// reads from others — interleaved over a working window of lines, so that
// reads which miss locally usually find the data cached at another node
// (the regime in which directory indirection, and the paper's in-transit
// optimization of it, matters).
package trace

import (
	"fmt"
	"slices"

	"innetcc/internal/sim"
)

// Access is one memory reference packed into one 8-byte word: the line
// address (block offset already stripped) in the low 63 bits and the write
// flag in the top bit. A trace holds one Access per reference, so the
// packing halves the largest store a run keeps.
type Access uint64

// MaxAddr is the largest line address an Access holds.
const MaxAddr = 1<<63 - 1

const writeBit Access = 1 << 63

// NewAccess packs a reference to line addr. It panics when addr exceeds
// MaxAddr; Read rejects such addresses before calling it.
func NewAccess(addr uint64, write bool) Access {
	if addr > MaxAddr {
		panic("trace: line address exceeds MaxAddr")
	}
	a := Access(addr)
	if write {
		a |= writeBit
	}
	return a
}

// Addr returns the line address.
func (a Access) Addr() uint64 { return uint64(a &^ writeBit) }

// Write reports whether the reference is a write.
func (a Access) Write() bool { return a&writeBit != 0 }

// Trace is a complete multi-threaded access trace: one in-order stream per
// node.
type Trace struct {
	Name    string
	PerNode [][]Access
}

// TotalAccesses returns the number of accesses summed over all nodes.
func (t *Trace) TotalAccesses() int {
	n := 0
	for _, s := range t.PerNode {
		n += len(s)
	}
	return n
}

// Profile parameterizes a synthetic benchmark.
type Profile struct {
	Name string

	// Lines is the shared working-set size in cache lines. The paper
	// re-parallelizes the same benchmark inputs when scaling from 16 to
	// 64 nodes, so the working set stays constant and per-line sharing
	// grows with the node count.
	Lines int

	// PrivateFrac is the fraction of lines touched by only one node.
	PrivateFrac float64

	// AvgReaders is the mean number of reader episodes that follow each
	// write to a shared line; it controls the dynamic copies-per-tree
	// statistic the paper correlates with read savings (lu/rad lowest,
	// bar/wsp highest).
	AvgReaders float64

	// GroupSize is the mean sharer-group size of shared lines; groups
	// are spatially clustered on the mesh as SPLASH-2's block
	// decompositions produce.
	GroupSize int

	// WriteFrac is the approximate fraction of accesses that are writes.
	WriteFrac float64

	// RMW is the probability that a reader in a shared-line episode
	// immediately writes the line after reading it (migratory
	// read-modify-write). High values create chains of ownership
	// transfers and same-line write contention at the home node, the
	// effect the paper links to home-distribution skew (Section 3.1).
	RMW float64

	// ReadOnlyFrac is the fraction of lines that are only ever read
	// (code, lookup tables, frozen data). Their virtual trees persist
	// until capacity-evicted, so they populate the tree caches and
	// create the capacity pressure the paper's Figure 6 sweeps.
	ReadOnlyFrac float64

	// HomeSkew in [0,1) biases which home node a line maps to: 0 is
	// uniform; larger values concentrate lines on a few home nodes,
	// raising the RMS deviation the paper reports.
	HomeSkew float64

	// Window is the number of simultaneously hot lines (temporal
	// locality); larger windows scatter accesses more widely.
	Window int

	// Think is the mean number of idle cycles a node waits between the
	// completion of one access and the issue of the next; lower values
	// raise the injection rate (radix and ocean are the paper's
	// high-rate benchmarks).
	Think int64
}

// Benchmarks returns the eight SPLASH-2 profiles in the paper's order:
// fft, lu, barnes, radix, water-nsquared, water-spatial, ocean, raytrace.
//
// Calibration sources, all from the paper: average active copies per tree
// (lu, rad lowest at 1.07; bar 1.16 and wsp 1.33 highest — Section 3.1);
// home-node RMS skew (wsp greatest, fft and lu least — Section 3.1); memory
// footprints (rad, ray, ocn largest — Section 3.3); injection rates (rad
// highest read rate; lu and ocn high write rates at 64 nodes — Section 3.4).
func Benchmarks() []Profile {
	return []Profile{
		{Name: "fft", Lines: 9000, PrivateFrac: 0.45, AvgReaders: 1.3, GroupSize: 3, WriteFrac: 0.32, RMW: 0.05, ReadOnlyFrac: 0.30, HomeSkew: 0.02, Window: 260, Think: 16},
		{Name: "lu", Lines: 8000, PrivateFrac: 0.55, AvgReaders: 1.1, GroupSize: 2, WriteFrac: 0.36, RMW: 0.05, ReadOnlyFrac: 0.25, HomeSkew: 0.03, Window: 220, Think: 8},
		{Name: "bar", Lines: 7000, PrivateFrac: 0.30, AvgReaders: 1.8, GroupSize: 4, WriteFrac: 0.28, RMW: 0.25, ReadOnlyFrac: 0.30, HomeSkew: 0.12, Window: 280, Think: 14},
		{Name: "rad", Lines: 22000, PrivateFrac: 0.55, AvgReaders: 1.1, GroupSize: 2, WriteFrac: 0.26, RMW: 0.10, ReadOnlyFrac: 0.35, HomeSkew: 0.10, Window: 420, Think: 4},
		{Name: "wns", Lines: 6500, PrivateFrac: 0.38, AvgReaders: 1.5, GroupSize: 3, WriteFrac: 0.30, RMW: 0.20, ReadOnlyFrac: 0.30, HomeSkew: 0.10, Window: 260, Think: 12},
		{Name: "wsp", Lines: 6500, PrivateFrac: 0.25, AvgReaders: 2.2, GroupSize: 4, WriteFrac: 0.30, RMW: 0.35, ReadOnlyFrac: 0.28, HomeSkew: 0.24, Window: 280, Think: 12},
		{Name: "ocn", Lines: 19000, PrivateFrac: 0.40, AvgReaders: 1.4, GroupSize: 3, WriteFrac: 0.40, RMW: 0.25, ReadOnlyFrac: 0.30, HomeSkew: 0.08, Window: 400, Think: 5},
		{Name: "ray", Lines: 21000, PrivateFrac: 0.42, AvgReaders: 1.5, GroupSize: 3, WriteFrac: 0.20, RMW: 0.10, ReadOnlyFrac: 0.40, HomeSkew: 0.09, Window: 420, Think: 10},
	}
}

// ProfileByName returns the named benchmark profile.
func ProfileByName(name string) (Profile, error) {
	for _, p := range Benchmarks() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// lineInfo is a built line: its address, its read-only flag and its
// group, the nodes that access it (one node = private). Generate keeps
// one per working-window slot, built from the line's RNG checkpoint when
// the line enters the slot; the group lives in the slot's own stretch of
// one shared array, so rebuilding a slot allocates nothing.
type lineInfo struct {
	addr     uint64
	group    []int32
	readOnly bool
}

// population is what Generate keeps of every line of the working set:
// ckpt[i] is the generator's RNG state at the start of line i's draws, from
// which drawLine replays the line. The other fields are the trace's draw
// parameters.
type population struct {
	ckpt   []uint64
	nodes  int
	side   int // meshSide(nodes): 0 when nodes is not a square
	radius int
	// groupDraw is the range of a shared line's group size draw: a group
	// has 2 + Intn(groupDraw) members, so at most groupDraw+1.
	groupDraw                           int
	privateFrac, readOnlyFrac, homeSkew float64
}

// drawLine makes one line's draws from rng, in order: its home, its
// anchor, whether it is shared, the group with its duplicate retries, and
// whether it is read-only. It appends the group to group and returns it.
// The draw pass calls it on the generator's RNG for every line; build
// replays it on a line's checkpoint, so both see the same draws.
func (p *population) drawLine(rng *sim.RNG, group []int32) (int32, []int32, bool) {
	home := int32(skewedHome(rng, p.nodes, p.homeSkew))
	anchor := rng.Intn(p.nodes)
	group = append(group, int32(anchor))
	if rng.Float64() >= p.privateFrac {
		g := 2 + rng.Intn(p.groupDraw) // mean ~= groupSize
		var ax, ay int
		if p.side > 0 {
			ax, ay = anchor%p.side, anchor/p.side
		}
		for len(group) < g {
			cand := int32(clusterNeighbor(rng, p.nodes, p.side, ax, ay, p.radius))
			if !slices.Contains(group, cand) {
				group = append(group, cand)
			} else if rng.Float64() < 0.3 {
				break // small groups stay small
			}
		}
	}
	return home, group, rng.Float64() < p.readOnlyFrac
}

// build rebuilds li as line, replaying the line's draws from its
// checkpoint into li's group storage.
func (p *population) build(li *lineInfo, line int) {
	home, group, readOnly := p.drawLine(sim.NewRNG(p.ckpt[line]), li.group[:0])
	*li = lineInfo{addr: lineAddr(line, p.nodes, home), group: group, readOnly: readOnly}
}

// MaxAccesses caps a generated trace's total accesses, nodes times
// accesses per node: 1<<26, 512 MiB of 8-byte accesses. The largest traces
// the repository runs (a 16-node job of 200,000 accesses per node, a
// 64x64 mesh at 100 per node) are a twentieth of it or less.
const MaxAccesses = 1 << 26

// SizeError reports a trace above MaxAccesses.
type SizeError struct {
	Nodes, AccessesPerNode int
}

func (e *SizeError) Error() string {
	return fmt.Sprintf("trace: %d nodes x %d accesses per node exceeds the %d-access trace cap",
		e.Nodes, e.AccessesPerNode, MaxAccesses)
}

// CheckSize returns a *SizeError when a trace of accessesPerNode accesses
// on each of nodes nodes would exceed MaxAccesses, and nil otherwise. It
// allocates nothing, so callers check a spec before generating it.
func CheckSize(nodes, accessesPerNode int) error {
	if nodes > 0 && accessesPerNode > MaxAccesses/nodes {
		return &SizeError{Nodes: nodes, AccessesPerNode: accessesPerNode}
	}
	return nil
}

// Generate builds a trace for the given profile on a nodes-node system,
// accessesPerNode references per node, deterministically from seed. It
// panics with a *SizeError, before allocating, when the trace would exceed
// MaxAccesses; callers that take sizes from users check CheckSize first.
//
// The trace is a function of the generator's RNG draw sequence: a draw
// pass makes every line's draws (drawLine) before any access is drawn, and
// the episodes and top-ups that follow draw from where it ends. The draw
// pass keeps only each line's starting RNG state; a line's group is built
// by replaying its draws from that state when the line enters the working
// window, and a top-up replays only the home draw. When a group is built
// changes no draw of the main sequence, so it changes no access.
func Generate(p Profile, nodes, accessesPerNode int, seed uint64) *Trace {
	if err := CheckSize(nodes, accessesPerNode); err != nil {
		panic(err)
	}
	rng := sim.NewRNG(seed ^ hashName(p.Name))
	lines := p.Lines
	if lines < 64 {
		lines = 64
	}
	window := p.Window
	if window < 8 {
		window = 8
	}

	// With the working set constant, re-parallelizing on more nodes
	// spreads each line across more threads (the paper's 64-way runs).
	groupSize := p.GroupSize
	radius := 1
	if nodes > 16 {
		groupSize *= 2
		radius = 2
	}
	pop := &population{
		ckpt:         make([]uint64, lines),
		nodes:        nodes,
		side:         meshSide(nodes),
		radius:       radius,
		groupDraw:    maxInt(1, 2*groupSize-3),
		privateFrac:  p.PrivateFrac,
		readOnlyFrac: p.ReadOnlyFrac,
		homeSkew:     p.HomeSkew,
	}
	maxGroup := pop.groupDraw + 1
	scratch := make([]int32, 0, maxGroup)
	for i := range pop.ckpt {
		pop.ckpt[i] = rng.State()
		pop.drawLine(rng, scratch[:0])
	}

	tr := &Trace{Name: p.Name, PerNode: make([][]Access, nodes)}
	for n := range tr.PerNode {
		tr.PerNode[n] = make([]Access, 0, accessesPerNode)
	}
	need := nodes * accessesPerNode
	emitted := 0
	emit := func(node int, addr uint64, write bool) {
		if len(tr.PerNode[node]) >= accessesPerNode {
			return
		}
		tr.PerNode[node] = append(tr.PerNode[node], NewAccess(addr, write))
		emitted++
	}

	// The working window of hot lines; episodes run over window members
	// and slots are gradually replaced, giving temporal locality. Each
	// slot holds its built line, with room for the largest group.
	win := make([]lineInfo, window)
	groups := make([]int32, window*maxGroup)
	for i := range win {
		win[i].group = groups[i*maxGroup : i*maxGroup : (i+1)*maxGroup]
		pop.build(&win[i], rng.Intn(lines))
	}
	for guard := 0; emitted < need && guard < 50*need; guard++ {
		li := &win[rng.Intn(window)]
		if rng.Float64() < 0.02 {
			pop.build(li, rng.Intn(lines)) // refresh slot
		}
		addr, group := li.addr, li.group
		if li.readOnly {
			// Read-only episode: group members (or the owner) read;
			// the tree persists until capacity-evicted.
			readers := 1 + poissonish(rng, p.AvgReaders)
			for k := 0; k < readers; k++ {
				r := int(group[rng.Intn(len(group))])
				emit(r, addr, false)
			}
			continue
		}
		if len(group) == 1 {
			// Private line: a short run of accesses by its owner.
			owner := int(group[0])
			runLen := 1 + rng.Intn(3)
			for k := 0; k < runLen; k++ {
				emit(owner, addr, rng.Float64() < p.WriteFrac)
			}
			continue
		}
		// Shared line: migratory episode — one writer, then reads by
		// other group members while the line is still cached.
		writer := int(group[rng.Intn(len(group))])
		doWrite := rng.Float64() < p.WriteFrac*(1.0+p.AvgReaders)
		if doWrite {
			emit(writer, addr, true)
		} else {
			emit(writer, addr, false)
		}
		readers := poissonish(rng, p.AvgReaders)
		for k := 0; k < readers; k++ {
			r := int(group[rng.Intn(len(group))])
			emit(r, addr, false)
			if rng.Float64() < p.RMW {
				// Migratory read-modify-write: the reader takes
				// ownership right after reading.
				emit(r, addr, true)
			}
		}
	}
	// Top up any still-short streams with private filler so every node
	// has exactly accessesPerNode accesses.
	for n := range tr.PerNode {
		for len(tr.PerNode[n]) < accessesPerNode {
			line := rng.Intn(lines)
			home := skewedHome(sim.NewRNG(pop.ckpt[line]), nodes, pop.homeSkew)
			addr := lineAddr(line, nodes, int32(home))
			tr.PerNode[n] = append(tr.PerNode[n], NewAccess(addr, rng.Float64() < p.WriteFrac))
		}
	}
	return tr
}

// lineAddr returns the address of population line i homed at node home:
// consecutive lines are nodes addresses apart, so addr%nodes is the home.
func lineAddr(i, nodes int, home int32) uint64 {
	return uint64(i)*uint64(nodes) + uint64(home)
}

// poissonish draws a small non-negative integer with the given mean.
func poissonish(rng *sim.RNG, mean float64) int {
	n := 0
	for rem := mean; rem > 0; rem -= 1.0 {
		pr := rem
		if pr > 1 {
			pr = 1
		}
		if rng.Float64() < pr {
			n++
		}
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// skewedHome draws a home node: with probability skew it concentrates on a
// small hot set of nodes, otherwise uniform.
func skewedHome(rng *sim.RNG, nodes int, skew float64) int {
	if rng.Float64() < skew {
		hot := nodes / 4
		if hot < 1 {
			hot = 1
		}
		return rng.Intn(hot)
	}
	return rng.Intn(nodes)
}

// clusterNeighbor picks a node within radius of the anchor at (ax, ay) on
// the mesh (assumed square, w = meshSide(nodes) nodes a side), falling
// back to uniform for odd shapes (w == 0).
func clusterNeighbor(rng *sim.RNG, nodes, w, ax, ay, radius int) int {
	if w == 0 {
		return rng.Intn(nodes)
	}
	span := 2*radius + 1
	dx, dy := rng.Intn(span)-radius, rng.Intn(span)-radius
	x, y := ax+dx, ay+dy
	if x < 0 || x >= w || y < 0 || y >= w {
		return rng.Intn(nodes)
	}
	return y*w + x
}

func meshSide(nodes int) int {
	for w := 1; w*w <= nodes; w++ {
		if w*w == nodes {
			return w
		}
	}
	return 0
}

func hashName(s string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Stats summarizes the sharing characteristics of a trace for calibration
// reporting: the mean number of distinct nodes that touch each line, and
// the per-home access counts (for RMS skew).
func (t *Trace) Stats(nodes int) (meanSharers float64, homeCounts []int64) {
	touched := map[uint64]map[int]bool{}
	homeCounts = make([]int64, nodes)
	for n, stream := range t.PerNode {
		for _, a := range stream {
			addr := a.Addr()
			m, ok := touched[addr]
			if !ok {
				m = map[int]bool{}
				touched[addr] = m
			}
			m[n] = true
			homeCounts[int(addr%uint64(nodes))]++
		}
	}
	if len(touched) == 0 {
		return 0, homeCounts
	}
	var sum int
	for _, m := range touched {
		sum += len(m)
	}
	return float64(sum) / float64(len(touched)), homeCounts
}
