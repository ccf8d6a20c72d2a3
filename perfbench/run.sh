#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it. Run it from the
# repository root, for example:
#   bash perfbench/run.sh --workload mesh4_long --seed 1 --seconds 30 --trace 0
# The build cache, the binary, run records, spans and CPU profiles all stay
# under .bench_build/perfbench in the current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" PPROF_TMPDIR="$out/pprof" \
	GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
