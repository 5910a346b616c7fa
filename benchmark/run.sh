#!/usr/bin/env bash
# Builds the benchmark program (main.go here) and runs it from the
# repository root.
#
#   bash benchmark/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-json FILE]
#   bash benchmark/run.sh -compare OLD.json[,...] NEW.json[,...]
#
# Every build product and scratch file stays under .bench_build/ at the
# repository root; the Go build cache there persists across runs.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomod" "$build/tmp" "$build/bin"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off GOPROXY=off

(cd benchmark && go build -o "$build/bin/benchmark" .)
exec "$build/bin/benchmark" "$@"
