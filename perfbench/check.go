package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"innetcc/internal/exec"
	"innetcc/internal/experiments"
)

// expectedSim is the simulated outcome of one simulation. A change that
// keeps the simulated behaviour reproduces it exactly.
type expectedSim struct {
	Digest   string  `json:"digest"`
	Cycles   int64   `json:"cycles"`
	ReadN    int64   `json:"read_n"`
	ReadSum  float64 `json:"read_sum"`
	WriteN   int64   `json:"write_n"`
	WriteSum float64 `json:"write_sum"`
}

func expectOf(s simOut) expectedSim {
	return expectedSim{Digest: s.Digest, Cycles: s.Cycles, ReadN: s.ReadN, ReadSum: s.ReadSum,
		WriteN: s.WriteN, WriteSum: s.WriteSum}
}

// expectedJSON holds the recorded results, keyed by suite seed and then by
// simulation key; README.md says how to regenerate it.
//
//go:embed expected.json
var expectedJSON []byte

// recorded returns the recorded results for a suite seed, or nil when the
// seed has none.
func recorded(suite uint64) map[string]expectedSim {
	var all map[string]map[string]expectedSim
	if err := json.Unmarshal(expectedJSON, &all); err != nil {
		panic("perfbench: bad expected.json: " + err.Error())
	}
	return all[strconv.FormatUint(suite, 10)]
}

// checkSim returns why a simulation fails the correctness gate, or "" when
// it passes: it must end without error, complete every trace access and,
// when want is non-nil, reproduce want exactly.
func checkSim(s simOut, want *expectedSim) string {
	switch {
	case s.Err != "":
		return s.Err
	case s.Completed != s.Accesses:
		return fmt.Sprintf("%d of %d accesses completed", s.Completed, s.Accesses)
	case want == nil:
		return ""
	case s.Digest != want.Digest:
		return fmt.Sprintf("state digest %s, want %s", s.Digest, want.Digest)
	case expectOf(s) != *want:
		return fmt.Sprintf("results %+v, want %+v", expectOf(s), *want)
	}
	return ""
}

// gate is the correctness gate of one benchmark run. It counts the
// simulations attempted and those that failed. Each simulation is compared
// with the results recorded for the seed or, for a seed with no record,
// with the first passing run of the same simulation in this benchmark run.
type gate struct {
	want      map[string]expectedSim
	first     map[string]expectedSim
	firstRows []experiments.PairResult

	attempted, failed int
	reasons           []string
}

func newGate(suite uint64) *gate {
	return &gate{want: recorded(suite), first: map[string]expectedSim{}}
}

func (g *gate) ref(key string) *expectedSim {
	src := g.first
	if g.want != nil {
		src = g.want
	}
	if e, ok := src[key]; ok {
		return &e
	}
	return nil
}

// refRows returns the fig9 rows the jobs must produce: folded from the
// recorded results, or else the first rows this run produced.
func (g *gate) refRows(jobs []exec.Job) []experiments.PairResult {
	if g.want == nil {
		return g.firstRows
	}
	outs := make([]simOut, len(jobs))
	for i, j := range jobs {
		e, ok := g.want[j.Key]
		if !ok {
			return nil
		}
		outs[i] = simOut{ReadN: e.ReadN, ReadSum: e.ReadSum, WriteN: e.WriteN, WriteSum: e.WriteSum}
	}
	return fig9Rows(outs)
}

// judge counts one repetition's simulations of jobs. outs holds the
// per-simulation outcomes the repetition reported (none for a batch run on
// the exec pool), rows the fig9 rows it produced (batch workloads only), and
// err a failure of the repetition as a whole, which fails all of them. A
// wrong row fails both simulations behind it.
func (g *gate) judge(jobs []exec.Job, outs []simOut, rows []experiments.PairResult, err error) {
	g.attempted += len(jobs)
	if err != nil {
		g.failed += len(jobs)
		g.reasons = append(g.reasons, err.Error())
		return
	}
	bad := map[string]bool{}
	fail := func(key, why string) {
		bad[key] = true
		g.reasons = append(g.reasons, key+": "+why)
	}
	for _, s := range outs {
		if why := checkSim(s, g.ref(s.Key)); why != "" {
			fail(s.Key, why)
		} else if g.want == nil && g.ref(s.Key) == nil {
			g.first[s.Key] = expectOf(s)
		}
	}
	if rows != nil {
		ref := g.refRows(jobs)
		for i := 0; i < len(jobs)/2; i++ {
			var why string
			switch {
			case i >= len(rows):
				why = "row missing"
			case rows[i].Err != "":
				why = rows[i].Err
			case ref != nil && rows[i] != ref[i]:
				why = fmt.Sprintf("row %+v, want %+v", rows[i], ref[i])
			}
			if why != "" {
				fail(jobs[2*i].Key, why)
				bad[jobs[2*i+1].Key] = true
			}
		}
		if ref == nil && len(bad) == 0 {
			g.firstRows = rows
		}
	}
	g.failed += len(bad)
}

// recordSeeds runs every workload's simulations for the seeds the list
// names (comma-separated seeds or lo:hi ranges) and writes their results in
// the form of expected.json, one simulation a line.
func recordSeeds(w io.Writer, list string) error {
	var seeds []uint64
	for _, item := range strings.Split(list, ",") {
		los, his, isRange := strings.Cut(item, ":")
		if !isRange {
			his = los
		}
		lo, err1 := strconv.ParseUint(los, 10, 64)
		hi, err2 := strconv.ParseUint(his, 10, 64)
		if err1 != nil || err2 != nil || lo > hi {
			return fmt.Errorf("bad seed list %q, want seeds or lo:hi ranges separated by commas", list)
		}
		for s := lo; s <= hi; s++ {
			seeds = append(seeds, s)
		}
	}
	var b strings.Builder
	b.WriteString("{")
	for i, seed := range seeds {
		suite := suiteSeed(seed)
		sims := map[string]expectedSim{}
		var keys []string
		for _, wl := range workloads {
			for _, s := range runJobs(wl.jobs(suite), 1, nil) {
				if why := checkSim(s, nil); why != "" {
					return fmt.Errorf("seed %d: %s: %s", seed, s.Key, why)
				}
				sims[s.Key] = expectOf(s)
				keys = append(keys, s.Key)
			}
		}
		sort.Strings(keys)
		if i > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n\t\"%d\": {", suite)
		for j, k := range keys {
			line, err := json.Marshal(sims[k])
			if err != nil {
				return err
			}
			if j > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "\n\t\t%q: %s", k, line)
		}
		b.WriteString("\n\t}")
	}
	b.WriteString("\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
