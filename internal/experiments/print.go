package experiments

import (
	"fmt"
	"io"

	"innetcc/internal/cacti"
)

// failRow renders one failed experiment row: the label keeps its column so
// the table stays scannable, the error replaces the numbers.
func failRow(w io.Writer, label, err string) {
	fmt.Fprintf(w, "%-6s FAILED: %s\n", label, err)
}

// PrintHopStudy renders the Section 1 characterization.
func PrintHopStudy(w io.Writer, rs []HopResult) {
	fmt.Fprintln(w, "Section 1 — ideal hop count reduction (oracle), %")
	fmt.Fprintf(w, "%-6s %10s %10s\n", "bench", "reads", "writes")
	var r, wr, n float64
	for _, h := range rs {
		if h.Err != "" {
			failRow(w, h.Bench, h.Err)
			continue
		}
		fmt.Fprintf(w, "%-6s %9.1f%% %9.1f%%\n", h.Bench, h.ReadPct, h.WritePct)
		r += h.ReadPct
		wr += h.WritePct
		n++
	}
	switch {
	case n > 0:
		fmt.Fprintf(w, "%-6s %9.1f%% %9.1f%%   (paper avg: 19.7%% / 17.3%%)\n", "avg", r/n, wr/n)
	case len(rs) > 0:
		failRow(w, "avg", noneMeasured)
	}
}

// PrintPairs renders a per-benchmark protocol comparison (Figures 5, 9, 10).
func PrintPairs(w io.Writer, title string, rs []PairResult, paperNote string) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-6s %10s %10s %10s %10s %8s %8s\n",
		"bench", "base-rd", "base-wr", "tree-rd", "tree-wr", "rd-red", "wr-red")
	for _, r := range rs {
		if r.Err != "" {
			failRow(w, r.Bench, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-6s %10.1f %10.1f %10.1f %10.1f %7.1f%% %7.1f%%\n",
			r.Bench, r.BaseRead, r.BaseWrite, r.TreeRead, r.TreeWrite,
			r.ReadReduction(), r.WriteReduction())
	}
	if paperNote != "" {
		fmt.Fprintln(w, paperNote)
	}
}

// PrintSweep renders Figure 6/7-style normalized sweeps grouped by
// benchmark.
func PrintSweep(w io.Writer, title string, pts []SweepPoint, valueLabel string) {
	fmt.Fprintln(w, title)
	fmt.Fprintf(w, "%-6s %10s %12s %12s\n", "bench", valueLabel, "norm-read", "norm-write")
	for _, p := range pts {
		if p.Err != "" {
			fmt.Fprintf(w, "%-6s %10d FAILED: %s\n", p.Bench, p.Value, p.Err)
			continue
		}
		fmt.Fprintf(w, "%-6s %10d %12.3f %12.3f\n", p.Bench, p.Value, p.Read, p.Write)
	}
}

// PrintFigure8 renders the L2 sweep.
func PrintFigure8(w io.Writer, pts []Figure8Point) {
	fmt.Fprintln(w, "Figure 8 — latency reduction vs baseline at shrinking L2 (%)")
	fmt.Fprintf(w, "%-6s %10s %10s %10s\n", "bench", "L2-entries", "rd-red", "wr-red")
	for _, p := range pts {
		if p.Err != "" {
			fmt.Fprintf(w, "%-6s %10d FAILED: %s\n", p.Bench, p.L2, p.Err)
			continue
		}
		fmt.Fprintf(w, "%-6s %10d %9.1f%% %9.1f%%\n", p.Bench, p.L2, p.ReadRed, p.WriteRed)
	}
}

// PrintTable3 renders the tree cache access-time/area grid.
func PrintTable3(w io.Writer) {
	res := cacti.Table3()
	fmt.Fprintln(w, "Table 3 — tree cache access time (cycles @500 MHz, 0.18 µm)")
	fmt.Fprintf(w, "%-8s", "ways\\sz")
	for _, s := range cacti.Table3Sizes {
		fmt.Fprintf(w, "%8d", s)
	}
	fmt.Fprintln(w)
	for i, ways := range cacti.Table3Ways {
		fmt.Fprintf(w, "%-8d", ways)
		for j := range cacti.Table3Sizes {
			fmt.Fprintf(w, "%8d", res[i][j].AccessCycles)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Table 3 — tree cache area (mm²)")
	for i, ways := range cacti.Table3Ways {
		fmt.Fprintf(w, "%-8d", ways)
		for j := range cacti.Table3Sizes {
			fmt.Fprintf(w, "%8.2f", res[i][j].AreaMM2)
		}
		fmt.Fprintln(w)
	}
}

// PrintTable4 renders the deadlock-recovery shares.
func PrintTable4(w io.Writer, rows []Table4Row) {
	fmt.Fprintln(w, "Table 4 — share of latency spent in deadlock recovery (DM tree cache)")
	fmt.Fprintf(w, "%-6s %10s %10s %8s\n", "bench", "read%", "write%", "aborts")
	var r, wr, n float64
	for _, t := range rows {
		if t.Err != "" {
			failRow(w, t.Bench, t.Err)
			continue
		}
		fmt.Fprintf(w, "%-6s %9.2f%% %9.2f%% %8d\n", t.Bench, t.ReadPct, t.WritePct, t.Aborts)
		r += t.ReadPct
		wr += t.WritePct
		n++
	}
	switch {
	case n > 0:
		fmt.Fprintf(w, "%-6s %9.2f%% %9.2f%%   (paper avg: 0.21%% / 0.20%%)\n", "avg", r/n, wr/n)
	case len(rows) > 0:
		failRow(w, "avg", noneMeasured)
	}
}

// PrintFigure11 renders the pipeline sweep.
func PrintFigure11(w io.Writer, pts []Figure11Point) {
	fmt.Fprintln(w, "Figure 11 — overall latency reduction vs baseline pipeline depth (%)")
	fmt.Fprintf(w, "%-6s", "bench")
	for _, d := range Figure11Depths {
		fmt.Fprintf(w, "%9s", fmt.Sprintf("%dv%d cyc", d+1, d))
	}
	fmt.Fprintln(w)
	cur := ""
	var row []string
	flush := func() {
		if cur == "" {
			return
		}
		fmt.Fprintf(w, "%-6s", cur)
		for _, v := range row {
			fmt.Fprint(w, v)
		}
		fmt.Fprintln(w)
	}
	for _, p := range pts {
		if p.Bench != cur {
			flush()
			cur = p.Bench
			row = row[:0]
		}
		if p.Err != "" {
			row = append(row, fmt.Sprintf("%9s", "FAILED"))
		} else {
			row = append(row, fmt.Sprintf("%8.1f%%", p.Red))
		}
	}
	flush()
}

// PrintAblations renders the design-decision ablation table.
func PrintAblations(w io.Writer, rows []AblationResult) {
	fmt.Fprintln(w, "Ablations — in-network design decisions (average over all benchmarks)")
	for _, r := range rows {
		if r.Err == "" {
			fmt.Fprintf(w, "nominal: read %.1f cy, write %.1f cy\n", r.BaseRead, r.BaseWrite)
			break
		}
	}
	fmt.Fprintf(w, "%-30s %10s %10s %10s %10s\n", "variant", "read", "write", "Δread", "Δwrite")
	for _, r := range rows {
		if r.Err != "" {
			fmt.Fprintf(w, "%-30s FAILED: %s\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(w, "%-30s %10.1f %10.1f %+9.1f%% %+9.1f%%\n", r.Name, r.Read, r.Write, r.ReadDelta, r.WriteDelta)
	}
}

// PrintStorage renders the Section 3.6 analysis.
func PrintStorage(w io.Writer, rows []StorageRow) {
	fmt.Fprintln(w, "Section 3.6 — per-node coherence storage (4K entries)")
	fmt.Fprintf(w, "%-6s %12s %12s %12s\n", "nodes", "tree-bits", "dir-bits", "overhead")
	for _, r := range rows {
		fmt.Fprintf(w, "%-6d %12d %12d %11.0f%%\n", r.Nodes, r.TreeBits, r.DirBits, r.TreeOverhead)
	}
	fmt.Fprintln(w, "(paper: +56% at 16 nodes, -58% at 64 nodes)")
}
