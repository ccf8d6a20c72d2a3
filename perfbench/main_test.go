package main

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"innetcc/internal/exec"
	"innetcc/internal/experiments"
)

// small returns job with its trace cut to accesses per node.
func small(job exec.Job, accesses int) exec.Job {
	job.Accesses = accesses
	return job
}

func TestWrongDigestCountsAsFailed(t *testing.T) {
	job := small(mesh4Jobs(42)[0], 300)
	out := runSim(job, nil)
	if why := checkSim(out, nil); why != "" {
		t.Fatalf("simulation failed: %s", why)
	}
	want := expectOf(out)
	g := &gate{want: map[string]expectedSim{job.Key: want}}
	g.judge([]exec.Job{job}, []simOut{out}, nil, nil)
	if g.attempted != 1 || g.failed != 0 {
		t.Fatalf("right digest: attempted %d failed %d, want 1 and 0 (%v)", g.attempted, g.failed, g.reasons)
	}
	want.Digest = "0123456789abcdef"
	g = &gate{want: map[string]expectedSim{job.Key: want}}
	g.judge([]exec.Job{job}, []simOut{out}, nil, nil)
	if g.attempted != 1 || g.failed != 1 {
		t.Fatalf("wrong digest: attempted %d failed %d, want 1 and 1", g.attempted, g.failed)
	}
}

func TestUnrecordedSeedComparesRepetitions(t *testing.T) {
	job := small(mesh4Jobs(42)[1], 200)
	out := runSim(job, nil)
	g := &gate{first: map[string]expectedSim{}}
	g.judge([]exec.Job{job}, []simOut{out}, nil, nil)
	changed := out
	changed.WriteSum++
	g.judge([]exec.Job{job}, []simOut{changed}, nil, nil)
	if g.attempted != 2 || g.failed != 1 {
		t.Fatalf("attempted %d failed %d, want 2 and 1", g.attempted, g.failed)
	}
}

// The traced run must reproduce the untraced simulated results exactly,
// including with two shards ticking routers concurrently.
func TestTracedRunMatchesUntraced(t *testing.T) {
	mesh16 := small(mesh16Jobs(5)[0], 20)
	mesh16.Shards = 2
	jobs := []exec.Job{small(mesh4Jobs(5)[0], 300), small(mesh4Jobs(5)[1], 300), mesh16}
	tc := newTracer()
	root := tc.begin("workload", -1)
	pb := newProbe(tc, root)
	for _, job := range jobs {
		plain, traced := runSim(job, nil), runSim(job, pb)
		if why := checkSim(traced, &[]expectedSim{expectOf(plain)}[0]); why != "" {
			t.Errorf("%s: traced run differs: %s", job.Key, why)
		}
	}
	tc.end(root)
	if pb.t.sims != 3 || pb.t.route[mesh16.Engine].calls == 0 || pb.t.parallel == 0 {
		t.Errorf("probe totals %+v: want 3 simulations, tree route calls and parallel cycles", pb.t)
	}
}

// fig9Rows must fold outcomes into exactly the rows experiments.Figure9
// returns for the same jobs.
func TestFig9RowsMatchFigure9(t *testing.T) {
	jobs := fig9Jobs(7)
	for i := range jobs {
		jobs[i] = small(jobs[i], 8)
	}
	got := fig9Rows(runJobs(jobs, 2, nil))
	want, err := experiments.Figure9(experiments.Options{Seed: 7, AccessesPerNode64: 8}.WithDefaults())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rows differ:\n got %+v\nwant %+v", got, want)
	}
}

func TestRecordedResultsMatch(t *testing.T) {
	job := mesh4Jobs(1)[2]
	want, ok := recorded(1)[job.Key]
	if !ok {
		t.Fatalf("expected.json has no result for seed 1, %s", job.Key)
	}
	if why := checkSim(runSim(job, nil), &want); why != "" {
		t.Fatal(why)
	}
}

// BENCHMARK.json at the repository root must name the workloads and
// metrics this harness runs and prints, with the units it prints.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !reflect.DeepEqual(names, ours) {
		t.Errorf("workloads %v, harness runs %v", names, ours)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, printed []string) {
		if len(listed) != len(printed) {
			t.Errorf("%s: %d metrics listed, %d printed", kind, len(listed), len(printed))
			return
		}
		for i, m := range listed {
			if m.Name != printed[i] || m.Unit != unit(printed[i]) {
				t.Errorf("%s %d: listed %s in %s, printed %s in %s", kind, i, m.Name, m.Unit, printed[i], unit(printed[i]))
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestModule(t *testing.T) {
	for fn, want := range map[string]string{
		"innetcc/internal/cache.(*Cache[go.shape.struct { State innetcc/internal/protocol.DState }]).find": "cache",
		"innetcc/internal/network.(*Router).Tick":                                                          "network",
		"main.(*timedPolicy).Route":                                                                        "main",
	} {
		if got, ok := module(fn); !ok || got != want {
			t.Errorf("module(%q) = %q, %v; want %q", fn, got, ok, want)
		}
	}
	if got, ok := module("runtime.mallocgc"); ok {
		t.Errorf("module(runtime.mallocgc) = %q, want none", got)
	}
}

func TestIQRMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
	vs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := iqrOverMedian(vs); got != (8.25-2.75)/5.5 {
		t.Fatalf("iqrOverMedian = %v, want %v", got, (8.25-2.75)/5.5)
	}
}
