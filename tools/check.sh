#!/bin/sh
# Repository check, in order: gofmt, build and vet; a build and vet of the
# perfbench module; a no-printing guard over the simulator packages;
# race-enabled tests; the allocation guards, which skip under -race, in a
# plain build; fuzz smokes over the trace-file and fault-spec
# parsers, the trace generator's eager reference, the cache reference model
# and the latency histogram's sorted-sample reference; race-enabled litmus campaigns
# (clean, under a drop plan, and a seeded defect that must be caught and
# replayed) and a litmus-program fuzz smoke; race-enabled fault smokes
# (drop-plan recovery per engine, the watchdog hang post-mortem, stall and
# corrupt faults with metrics on, and a run whose rows all fail, which must
# exit non-zero); a race-enabled metrics-instrumented experiment run;
# race-enabled topology, router-parking and 64-node experiment smokes; and
# the serving layer's submit, drain and restart smoke. Deterministic
# figures such as the multicast invalidation-packet counts and the serving
# layer's repeat-sweep cache hits are gated by the race-enabled tests, not
# by a stage here; perfbench/ is the timing harness. CI runs exactly this script
# (.github/workflows/ci.yml) so local and CI results agree.
set -eux

cd "$(dirname "$0")/.."

# Scratch directories for the litmus reproducers, the metrics CSV and the
# serving smoke (its data and a race-built binary), removed on any exit.
LITMUS_OUT=$(mktemp -d)
METRICS_OUT=$(mktemp -d)
SERVE_DATA=$(mktemp -d)
trap 'rm -rf "$LITMUS_OUT" "$METRICS_OUT" "$SERVE_DATA"' EXIT

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

# Allocation guards: the mallocs-per-packet tests of both engines skip
# under the race detector (it allocates on its own account), so they run
# here without it.
go test -run 'MallocsPerPacket' ./internal/exec

# Fuzz smoke: a short randomized session over the trace-file parser on top
# of the committed regression corpus (testdata/fuzz/FuzzRead).
go test ./internal/trace -fuzz '^FuzzRead$' -fuzztime 10s

# Generator fuzz smoke: Generate, which builds each line from its RNG
# checkpoint on first touch, against generateEager, which builds every line
# up front, on fuzzed profile, node count, length and seed.
go test ./internal/trace -fuzz '^FuzzGenerateMatchesEager$' -fuzztime 5s

# Fault-spec fuzz smoke: parse/canonicalize round-trip and plan determinism
# over the committed corpus (internal/fault/testdata/fuzz/FuzzParseSpec).
go test ./internal/fault -fuzz '^FuzzParseSpec$' -fuzztime 5s

# Cache fuzz smoke: the differential test against the one-slice-per-set
# reference model on fuzzed geometry, seed and run length.
go test ./internal/cache -fuzz '^FuzzMatchesReferenceModel$' -fuzztime 10s

# Sampler fuzz smoke: the per-value latency histogram against every sample
# kept, sorted and read at its nearest rank, on fuzzed sample streams.
go test ./internal/stats -fuzz '^FuzzSamplerMatchesSort$' -fuzztime 5s

# Litmus smoke under the race detector: a fixed-seed campaign of generated
# conflict programs on both engines, clean and under a drop plan with
# recovery armed (the command exits non-zero on any oracle failure), then a
# mutation campaign that MUST fail — the pipeline has to catch a seeded
# protocol defect, shrink it, and write a reproducer that replays under the
# invariant ID the litmus bugCases row for skip-invalidate pins.
go run -race ./cmd/innetcc -litmus 25 -jobs 2 >/dev/null
go run -race ./cmd/innetcc -litmus 25 -jobs 2 \
    -faults 'drop=5000,timeout=4000,retries=8,backoff=32,probe=100' >/dev/null
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
# Failed-run smoke: innetcc exits non-zero when any table row failed, so
# the experiment smokes in this script gate on job failures, not only on
# crashes. A plan naming a link the fabric does not have fails every row,
# and the command MUST fail.
if go run -race ./cmd/innetcc -exp fig5 -accesses 20 \
    -faults 'drop=1000000,link=99:7,timeout=2000' >/dev/null 2>&1; then
    echo "innetcc exited 0 with every fig5 row failed" >&2
    exit 1
fi

# Observability smoke under the race detector: one metrics-instrumented
# experiment across parallel workers, with CSV export and flight dumping.
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 -metrics \
    -metrics-out "$METRICS_OUT/metrics.csv" -flight-dump >/dev/null

# Topology smoke under the race detector: the fig5 sweep on a torus with
# hardware multicast and on a ring, exercising the non-mesh routing and the
# in-fabric invalidation forking through the full CLI path.
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 \
    -topology torus:4x4 -multicast >/dev/null
go run -race ./cmd/innetcc -exp fig5 -accesses 80 -jobs 4 \
    -topology ring:16 >/dev/null

# Router-parking smoke under the race detector: Figure 10's above-network
# tree parks routers on slot wakes of the kernel's calendar ring for up to
# 13 cycles, its longest parks, and Figure 11's pipeline sweep down to one
# cycle parks them for the shortest delays. The fault-plan run adds
# timeouts and probes 2,000 to 200,000 cycles out, which wait in the
# ring's buckets through many laps beside the parked routers' wakes.
go run -race ./cmd/innetcc -exp fig10 -accesses 80 -jobs 2 >/dev/null
go run -race ./cmd/innetcc -exp fig10 -accesses 80 -jobs 2 \
    -faults 'timeout=200000,probe=2000' >/dev/null
go run -race ./cmd/innetcc -exp fig11 -accesses 80 -jobs 2 >/dev/null
# Figure 9's 8x8 jobs register 65 tickers (64 routers and the machine), so
# the kernel's active bitmap spills into a second word, and the machine's
# due queue serves 64 CPUs.
go run -race ./cmd/innetcc -exp fig9 -accesses 40 -jobs 2 >/dev/null

# Serving-layer smoke under the race detector: start the job server on a
# loopback port, submit a job over HTTP, poll its record to completion,
# fetch the result, then submit a job that spans more than one default
# 1,048,576-cycle segment and SIGTERM the server while it runs. The drain
# must requeue it on disk; a restart on the same data directory must rerun
# it to done with a result identical to a fresh server's for the same spec.
SERVE_ADDR=127.0.0.1:18931
FRESH_ADDR=127.0.0.1:18932
go build -race -o "$SERVE_DATA/innetcc" ./cmd/innetcc
"$SERVE_DATA/innetcc" -serve "$SERVE_ADDR" -serve-data "$SERVE_DATA/data" \
    -serve-workers 2 > "$SERVE_DATA/server.log" 2>&1 &
SERVE_PID=$!
"$SERVE_DATA/innetcc" -serve "$FRESH_ADDR" -serve-data "$SERVE_DATA/fresh" \
    > "$SERVE_DATA/fresh.log" 2>&1 &
FRESH_PID=$!
for addr in "$SERVE_ADDR" "$FRESH_ADDR"; do
    for i in $(seq 1 50); do
        if "$SERVE_DATA/innetcc" -client "http://$addr" >/dev/null 2>&1; then break; fi
        sleep 0.2
    done
done
"$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" -submit -profile fft \
    -engine tree -accesses 120 -watch yes >/dev/null
"$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" -stats >/dev/null
LONG_JOB="-submit -profile ocn -engine tree -accesses 80000 -topology mesh:2x2"
FRESH_ID=$("$SERVE_DATA/innetcc" -client "http://$FRESH_ADDR" $LONG_JOB | awk '{print $2}')
LONG_ID=$("$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" $LONG_JOB | awk '{print $2}')
for i in $(seq 1 100); do
    if "$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" -status "$LONG_ID" |
        grep -q '"state": "running"'; then break; fi
    sleep 0.1
done
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q 'drained' "$SERVE_DATA/server.log"
grep -q '"state":"queued"' "$SERVE_DATA/data/jobs/$LONG_ID.json"
"$SERVE_DATA/innetcc" -serve "$SERVE_ADDR" -serve-data "$SERVE_DATA/data" \
    -serve-workers 2 >> "$SERVE_DATA/server.log" 2>&1 &
SERVE_PID=$!
for i in $(seq 1 50); do
    if "$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" >/dev/null 2>&1; then break; fi
    sleep 0.2
done
"$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" -watch "$LONG_ID" >/dev/null
"$SERVE_DATA/innetcc" -client "http://$FRESH_ADDR" -watch "$FRESH_ID" >/dev/null
"$SERVE_DATA/innetcc" -client "http://$SERVE_ADDR" -result "$LONG_ID" > "$SERVE_DATA/restarted.json"
"$SERVE_DATA/innetcc" -client "http://$FRESH_ADDR" -result "$FRESH_ID" > "$SERVE_DATA/fresh.json"
cmp "$SERVE_DATA/restarted.json" "$SERVE_DATA/fresh.json"
kill -TERM "$SERVE_PID" "$FRESH_PID"
wait "$SERVE_PID" "$FRESH_PID"
