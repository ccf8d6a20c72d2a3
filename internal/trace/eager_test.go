package trace

import "innetcc/internal/sim"

// generateEager is Generate without checkpoints: it builds every line's
// home, group and read-only flag into one population before it emits any
// access. It is the reference FuzzGenerateMatchesEager holds Generate to,
// access for access.
func generateEager(p Profile, nodes, accessesPerNode int, seed uint64) *Trace {
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
	side := meshSide(nodes)
	pop := make([]eagerLine, lines)
	arena := make([]int32, 0, lines+int(float64(lines)*(1-p.PrivateFrac))*groupSize)
	for i := range pop {
		home := skewedHome(rng, nodes, p.HomeSkew)
		anchor := rng.Intn(nodes)
		lo := len(arena)
		arena = append(arena, int32(anchor))
		if rng.Float64() >= p.PrivateFrac {
			g := 2 + rng.Intn(maxInt(1, 2*groupSize-3)) // mean ~= groupSize
			for len(arena)-lo < g {
				cand := int32(clusterNeighborEager(rng, nodes, side, anchor, radius))
				dup := false
				for _, x := range arena[lo:] {
					if x == cand {
						dup = true
					}
				}
				if !dup {
					arena = append(arena, cand)
				} else if rng.Float64() < 0.3 {
					break // small groups stay small
				}
			}
		}
		pop[i] = eagerLine{home: int32(home), lo: int32(lo), hi: int32(len(arena)), readOnly: rng.Float64() < p.ReadOnlyFrac}
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
	// and slots are gradually replaced, giving temporal locality.
	win := make([]int, window)
	for i := range win {
		win[i] = rng.Intn(lines)
	}
	for guard := 0; emitted < need && guard < 50*need; guard++ {
		slot := rng.Intn(window)
		if rng.Float64() < 0.02 {
			win[slot] = rng.Intn(lines) // refresh slot
		}
		line := win[slot]
		li := &pop[line]
		addr := lineAddr(line, nodes, li.home)
		group := arena[li.lo:li.hi]
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
			addr := lineAddr(line, nodes, pop[line].home)
			tr.PerNode[n] = append(tr.PerNode[n], NewAccess(addr, rng.Float64() < p.WriteFrac))
		}
	}
	return tr
}

// eagerLine is generateEager's per-line record: the line's home, its group
// arena[lo:hi] and its read-only flag.
type eagerLine struct {
	home     int32
	lo, hi   int32
	readOnly bool
}

// clusterNeighborEager picks a node within radius of anchor on the mesh
// (assumed square, w = meshSide(nodes) nodes a side), falling back to
// uniform for odd shapes (w == 0).
func clusterNeighborEager(rng *sim.RNG, nodes, w, anchor, radius int) int {
	if w == 0 {
		return rng.Intn(nodes)
	}
	span := 2*radius + 1
	dx, dy := rng.Intn(span)-radius, rng.Intn(span)-radius
	x, y := anchor%w+dx, anchor/w+dy
	if x < 0 || x >= w || y < 0 || y >= nodes/w {
		return rng.Intn(nodes)
	}
	return y*w + x
}
