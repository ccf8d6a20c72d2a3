package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Trace file format. The paper's methodology is trace-driven (memory access
// traces gathered from Bochs); this repository's synthetic generator is one
// producer, but users can bring their own traces in a simple line-oriented
// text format:
//
//	# comment
//	trace <name> <nodes>
//	<node> R <hex-line-address>
//	<node> W <hex-line-address>
//	...
//
// Per-node order is the node's program order; interleaving between nodes is
// decided by the simulator (Requirement 4 serializes each node anyway).

// Write serializes the trace to w in the text format above. Accesses are
// emitted node by node; cross-node interleaving carries no meaning in the
// format.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "trace %s %d\n", sanitizeName(t.Name), len(t.PerNode)); err != nil {
		return err
	}
	for n, stream := range t.PerNode {
		for _, a := range stream {
			op := "R"
			if a.Write() {
				op = "W"
			}
			if _, err := fmt.Fprintf(bw, "%d %s %x\n", n, op, a.Addr()); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func sanitizeName(s string) string {
	if s == "" {
		return "unnamed"
	}
	return strings.ReplaceAll(s, " ", "_")
}

// MaxFileNodes bounds the node count a trace file may declare. Without it a
// corrupt or hostile header ("trace x 999999999999") would size the per-node
// slice table before a single record is parsed.
const MaxFileNodes = 1 << 16

// Read parses a trace from r. It validates node indices, access
// operations and addresses (at most MaxAddr) and returns a descriptive
// error with the offending line number.
func Read(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	var tr *Trace
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if tr == nil {
			if len(fields) != 3 || fields[0] != "trace" {
				return nil, fmt.Errorf("trace: line %d: expected header \"trace <name> <nodes>\"", lineNo)
			}
			nodes, err := strconv.Atoi(fields[2])
			if err != nil || nodes <= 0 || nodes > MaxFileNodes {
				return nil, fmt.Errorf("trace: line %d: bad node count %q", lineNo, fields[2])
			}
			tr = &Trace{Name: fields[1], PerNode: make([][]Access, nodes)}
			continue
		}
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: expected \"<node> R|W <addr>\"", lineNo)
		}
		node, err := strconv.Atoi(fields[0])
		if err != nil || node < 0 || node >= len(tr.PerNode) {
			return nil, fmt.Errorf("trace: line %d: bad node %q", lineNo, fields[0])
		}
		var write bool
		switch fields[1] {
		case "R", "r":
			write = false
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad op %q", lineNo, fields[1])
		}
		addr, err := strconv.ParseUint(fields[2], 16, 64)
		if err != nil || addr > MaxAddr {
			return nil, fmt.Errorf("trace: line %d: bad address %q", lineNo, fields[2])
		}
		tr.PerNode[node] = append(tr.PerNode[node], NewAccess(addr, write))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if tr == nil {
		return nil, fmt.Errorf("trace: empty input")
	}
	return tr, nil
}
