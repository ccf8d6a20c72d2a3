package serve

import (
	"testing"

	"innetcc/internal/trace"
)

// sweep pushes one job per profile x engine through the server, waits for
// all of them, and returns the job count.
func sweep(tb testing.TB, srv *Server, accesses int) int {
	tb.Helper()
	ctx := testCtx(tb)
	var ids []string
	for _, p := range trace.Benchmarks() {
		for _, engine := range []string{"dir", "tree"} {
			rec, err := srv.Submit(SubmitRequest{
				Profile: p.Name, Engine: engine, Accesses: accesses,
			})
			if err != nil {
				tb.Fatalf("submit: %v", err)
			}
			ids = append(ids, rec.ID)
		}
	}
	for _, id := range ids {
		rec, err := srv.Wait(ctx, id)
		if err != nil || rec.State != StateDone {
			tb.Fatalf("wait %s: %v %+v", id, err, rec)
		}
	}
	return len(ids)
}

func benchOptions(dir string) Options {
	return Options{DataDir: dir, Workers: 4}
}

// BenchmarkServeSweepCold measures full-sweep throughput through the
// serving layer — 8 profiles x 2 engines — with an empty result cache:
// every job simulates. Each iteration gets a fresh data directory so every
// sweep is genuinely cold.
func BenchmarkServeSweepCold(b *testing.B) {
	jobs := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		srv, err := New(benchOptions(b.TempDir()))
		if err != nil {
			b.Fatalf("new server: %v", err)
		}
		b.StartTimer()
		jobs += sweep(b, srv, 60)
		b.StopTimer()
		srv.Drain()
		b.StartTimer()
	}
	b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/sec")
}

// BenchmarkServeSweepWarm is the same sweep against a primed result cache:
// the scheduling, HTTP-free submission path and cache serving, with zero
// simulation work.
func BenchmarkServeSweepWarm(b *testing.B) {
	srv, err := New(benchOptions(b.TempDir()))
	if err != nil {
		b.Fatalf("new server: %v", err)
	}
	defer srv.Drain()
	sweep(b, srv, 60) // prime
	b.ResetTimer()
	jobs := 0
	for i := 0; i < b.N; i++ {
		jobs += sweep(b, srv, 60)
	}
	b.ReportMetric(float64(jobs)/b.Elapsed().Seconds(), "jobs/sec")
}
