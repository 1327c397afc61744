#!/usr/bin/env bash
# Builds tplserved and the benchmark from this checkout, then runs the
# benchmark with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload durable-ingest --seed 1 --seconds 10 --trace 0
#
# Every build and run artefact stays under .bench_build/ in the
# checkout: the Go build cache, temp files and the binaries.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tplserved" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/tplserved and perfbench/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/config" "$build/gomod"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod" \
	XDG_CONFIG_HOME="$build/config" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local

go build -o "$build/bin/tplserved" ./cmd/tplserved >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" "$@"
