#!/bin/sh
# Repository check: build, vet, a build and vet of the perfbench module, a
# no-printing guard over the simulator packages, race-enabled tests, fuzz
# smoke passes over the trace-file and fault-spec parsers, race-enabled
# fault-injection smokes (drop-plan recovery per engine + watchdog hang
# post-mortem, stall and corrupt faults with metrics on), and a race-enabled
# metrics-instrumented experiment run. CI runs exactly this script
# (.github/workflows/ci.yml) so local and CI results agree.
set -eux

cd "$(dirname "$0")/.."

gofmt_out=$(gofmt -l .)
if [ -n "$gofmt_out" ]; then
    echo "gofmt needed on:" "$gofmt_out" >&2
    exit 1
fi

go build ./...
go vet ./...

# The benchmark harness is its own module (perfbench/go.mod) built against
# this tree, so a program API change that breaks it must fail here. Only
# build and vet it; -o /dev/null keeps the main package's binary out of the
# tree.
(cd perfbench && go build -o /dev/null ./... && go vet ./...)

# Output guard: the flight recorder is the simulator's one event trace. No
# simulator package prints to stdout/stderr or keeps a DebugAddr tracer.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'DebugAddr|fmt\.Print|os\.Std(out|err)' \
    internal/sim internal/network internal/protocol internal/treecc \
    internal/directory internal/cache internal/memory internal/metrics \
    internal/stats internal/verify internal/fault; then
    echo "simulator packages must not print or keep DebugAddr tracers" >&2
    exit 1
fi

go test -race ./...

# Fuzz smoke: a short randomized session over the trace-file parser on top
# of the committed regression corpus (testdata/fuzz/FuzzRead).
go test ./internal/trace -fuzz '^FuzzRead$' -fuzztime 10s

# Fault-spec fuzz smoke: parse/canonicalize round-trip and plan determinism
# over the committed corpus (internal/fault/testdata/fuzz/FuzzParseSpec).
go test ./internal/fault -fuzz '^FuzzParseSpec$' -fuzztime 5s

# Litmus smoke under the race detector: a fixed-seed campaign of generated
# conflict programs on both engines, clean and under a drop plan with
# recovery armed (the command exits non-zero on any oracle failure), then a
# mutation campaign that MUST fail — the pipeline has to catch a seeded
# protocol defect, shrink it, and write a reproducer that replays under the
# invariant ID the litmus bugCases row for skip-invalidate pins.
go run -race ./cmd/innetcc -litmus 25 -jobs 2 >/dev/null
go run -race ./cmd/innetcc -litmus 25 -jobs 2 \
    -faults 'drop=5000,timeout=4000,retries=8,backoff=32,probe=100' >/dev/null
LITMUS_OUT=$(mktemp -d)
if go run -race ./cmd/innetcc -litmus 4 -litmus-engine tree \
    -litmus-bug skip-invalidate -litmus-out "$LITMUS_OUT" >/dev/null 2>&1; then
    echo "litmus mutation campaign failed to detect the seeded defect" >&2
    exit 1
fi
REPRO=$(ls "$LITMUS_OUT"/litmus-*.json | head -1)
go run -race ./cmd/innetcc -litmus-replay "$REPRO" | grep -q '^reproduced: sole-copy-at-commit:'

# Litmus-program fuzz smoke: coverage-guided conflict programs through the
# full simulator's oracle battery on both engines (internal/litmus).
go test -race ./internal/litmus -fuzz '^FuzzLitmusProgram$' -fuzztime 10s

# Fault smoke under the race detector: one seeded drop plan per engine must
# recover to a coherent end state, a watchdog trip must return a typed
# hang error, and a hung job's failed result must carry the flight ring
# (the hang post-mortem).
go test -race ./internal/fault \
    -run '^(TestDropPlanCompletesCoherently|TestWatchdogTripReturnsTypedHang)$' -v
go test -race ./internal/exec -run '^TestWatchdogHangResultCarriesFlightRing$' -v
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 \
    -faults drop=2000,timeout=200000,retries=6,backoff=64 -retries 1 >/dev/null
# Stall and corrupt faults with metrics on: the router's stall-fault
# consultation and its serial-wait charge to heads waiting on busy links.
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 -metrics \
    -faults 'corrupt=2000,stall=20000,stalllen=8,timeout=200000,retries=6,backoff=64,probe=2000' >/dev/null

# Observability smoke under the race detector: one metrics-instrumented
# experiment across parallel workers, with CSV export and flight dumping.
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 -metrics \
    -metrics-out "$(mktemp -d)/metrics.csv" -flight-dump >/dev/null

# Topology smoke under the race detector: the fig5 sweep on a torus with
# hardware multicast and on a ring, exercising the non-mesh routing and the
# in-fabric invalidation forking through the full CLI path.
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 \
    -topology torus:4x4 -multicast >/dev/null
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 \
    -topology ring:16 >/dev/null

# Serving-layer smoke under the race detector: start the job server on a
# loopback port, submit a job over HTTP, stream its progress to completion,
# fetch the result, then SIGTERM the server and require a clean drain.
SERVE_DATA=$(mktemp -d)
SERVE_ADDR=127.0.0.1:18931
go build -race -o "$SERVE_DATA/innetcc" ./cmd/innetcc
"$SERVE_DATA/innetcc" -serve "$SERVE_ADDR" -serve-data "$SERVE_DATA/data" \
    -tenants 'ci=2:8' -serve-workers 2 > "$SERVE_DATA/server.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    if "$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
"$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" -submit -profile fft \
    -engine tree -accesses 120 -tenant ci -watch yes >/dev/null
"$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" -stats >/dev/null
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q 'drained' "$SERVE_DATA/server.log"

# Serving-layer benchmark smoke: the 8-profile x 2-engine sweep through the
# job server with a cold and a warm result cache, recorded as
# BENCH_serve.json so scheduling/caching regressions show up in review
# diffs. One iteration by default; set SERVE_BENCHTIME (e.g. 5x) to refresh
# the committed numbers.
: "${SERVE_BENCHTIME:=1x}"
go test -run '^$' -bench 'ServeSweep' -benchtime "$SERVE_BENCHTIME" ./internal/serve |
    awk '
        $1 ~ /^BenchmarkServeSweep/ {
            name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkServeSweep/, "", name)
            for (i = 2; i <= NF; i++) if ($(i+1) == "jobs/sec") jps[name] = $i
        }
        END {
            if (jps["Cold"] == "" || jps["Warm"] == "") { print "bench output missing" > "/dev/stderr"; exit 1 }
            printf "{\n"
            printf "  \"benchmark\": \"ServeSweep\",\n"
            printf "  \"config\": \"8 profiles x 2 engines, 60 accesses/node, 4 workers\",\n"
            printf "  \"cold_jobs_per_sec\": %s,\n", jps["Cold"]
            printf "  \"warm_jobs_per_sec\": %s,\n", jps["Warm"]
            printf "  \"warm_speedup\": %.2f\n", jps["Warm"] / jps["Cold"]
            printf "}\n"
        }' > BENCH_serve.json
cat BENCH_serve.json

# Kernel benchmark smoke: the active-set kernel against its always-tick
# control on the 64-node low-injection mesh, recorded as BENCH_kernel.json
# so regressions in the idle-skip machinery show up in review diffs. One
# iteration by default (a smoke, not a measurement); set KERNEL_BENCHTIME
# (e.g. 5x) to refresh the committed numbers.
: "${KERNEL_BENCHTIME:=1x}"
go test -run '^$' -bench 'KernelIdleMesh' -benchtime "$KERNEL_BENCHTIME" . |
    awk -v host_cpus="$(nproc)" '
        $1 ~ /^BenchmarkKernelIdleMesh/ {
            name = $1; sub(/-[0-9]+$/, "", name)
            ns[name] = $3; cycles[name] = $5
        }
        END {
            a = ns["BenchmarkKernelIdleMesh"]
            t = ns["BenchmarkKernelIdleMeshAlwaysTick"]
            if (a == "" || t == "") { print "bench output missing" > "/dev/stderr"; exit 1 }
            printf "{\n"
            printf "  \"benchmark\": \"KernelIdleMesh\",\n"
            printf "  \"config\": \"8x8 mesh, tree engine, bar profile, think=200, 120 accesses/node\",\n"
            printf "  \"host_cpus\": %s,\n", host_cpus
            printf "  \"active_set_ns_per_op\": %s,\n", a
            printf "  \"always_tick_ns_per_op\": %s,\n", t
            printf "  \"sim_cycles\": %s,\n", cycles["BenchmarkKernelIdleMesh"]
            printf "  \"speedup\": %.2f\n", t / a
            printf "}\n"
        }' > BENCH_kernel.json
cat BENCH_kernel.json

# Topology benchmark smoke: hardware-multicast invalidation traffic against
# its unicast control on the 8x8 torus, recorded as BENCH_topology.json so
# regressions in the fabric's packet forking show up in review diffs. One
# iteration by default (the packet counts are deterministic per run); set
# TOPOLOGY_BENCHTIME (e.g. 5x) to refresh the committed timings too.
: "${TOPOLOGY_BENCHTIME:=1x}"
go test -run '^$' -bench 'TopologyMulticast' -benchtime "$TOPOLOGY_BENCHTIME" . |
    awk '
        $1 ~ /^BenchmarkTopologyMulticast\// {
            name = $1; sub(/-[0-9]+$/, "", name); sub(/^BenchmarkTopologyMulticast\//, "", name)
            for (i = 2; i <= NF; i++) if ($(i+1) == "inv-packets") pk[name] = $i
        }
        END {
            if (pk["Unicast"] == "" || pk["Multicast"] == "") { print "bench output missing" > "/dev/stderr"; exit 1 }
            printf "{\n"
            printf "  \"benchmark\": \"TopologyMulticast\",\n"
            printf "  \"config\": \"8x8 torus, directory engine, wsp profile, 150 accesses/node\",\n"
            printf "  \"unicast_inv_packets\": %s,\n", pk["Unicast"]
            printf "  \"multicast_inv_packets\": %s,\n", pk["Multicast"]
            printf "  \"packet_reduction\": %.2f\n", 1 - pk["Multicast"] / pk["Unicast"]
            printf "}\n"
        }' > BENCH_topology.json
cat BENCH_topology.json
