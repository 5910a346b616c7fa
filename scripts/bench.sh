#!/bin/sh
# bench.sh — measure the simulator's hot-path trajectory on the current
# tree: cold serial fig2a, the tiny tail and fleet experiments (each the
# minimum of ROUNDS runs), and the in-process cell and latency-recorder
# benchmarks. It writes a JSON record with two blocks, "host" and "after",
# to the given path; scripts/benchgate.sh compares the "after" block with
# the newest committed BENCH_PR*.json.
#
# A speed claim needs more than this script: measure the pre- and
# post-change binaries alternated in one loop on one host, the only
# protocol that cancels the host's ±5-10% wall-clock drift.
#
# Commit stamping: "after.commit" is the actual HEAD at measurement time,
# with a "+dirty" suffix when the worktree has uncommitted changes.
#
# Usage: scripts/bench.sh output.json
#   ROUNDS=5 scripts/bench.sh out.json    # more rounds per wall-clock

set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench.sh output.json" >&2
    exit 2
fi
out=$1
ROUNDS=${ROUNDS:-3}
case $out in /*) ;; *) out=$PWD/$out ;; esac
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

echo "building cmd/figures..." >&2
go build -o "$tmp/figures" ./cmd/figures

# time_min CMD... : run the command ROUNDS times, echoing "min|run1, run2, ..."
time_min() {
    best=
    runs=
    i=0
    while [ "$i" -lt "$ROUNDS" ]; do
        s=$(date +%s%N)
        "$@" >/dev/null
        e=$(date +%s%N)
        ms=$(((e - s) / 1000000))
        echo "  round $((i + 1)): ${ms}ms" >&2
        runs="$runs${runs:+, }$ms"
        if [ -z "$best" ] || [ "$ms" -lt "$best" ]; then best=$ms; fi
        i=$((i + 1))
    done
    echo "$best|$runs"
}

echo "timing cold serial 'figures -exp fig2a' ($ROUNDS rounds)..." >&2
r=$(time_min "$tmp/figures" -exp fig2a -parallel 1 -no-cache)
best=${r%%|*}
runs=${r#*|}

echo "timing 'figures -exp tail' (tiny config, $ROUNDS rounds)..." >&2
r=$(time_min "$tmp/figures" -exp tail -ops 200 -threads 1,2 -parallel 1 -no-cache)
tail_best=${r%%|*}
tail_runs=${r#*|}

echo "timing 'figures -exp fleet' (tiny config, $ROUNDS rounds)..." >&2
r=$(time_min "$tmp/figures" -exp fleet -ops 40 -parallel 1 -no-cache)
fleet_best=${r%%|*}
fleet_runs=${r#*|}

# ---- in-process benchmarks ----
echo "running fig2a-cell benchmark..." >&2
go test -run '^$' -bench BenchmarkFig2aCell -benchtime 3x ./internal/bench/ >"$tmp/cell.txt"
echo "running latency-recorder benchmark..." >&2
go test -run '^$' -bench BenchmarkLatencyRecord -benchtime 0.5s ./internal/obs/ >"$tmp/lat.txt"

cpu=$(awk -F: '/^model name/ { sub(/^ +/, "", $2); print $2; exit }' /proc/cpuinfo 2>/dev/null || true)

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    commit="$commit+dirty"
fi

{
    cat <<EOF
{
  "host": {
    "goos": "$(go env GOOS)",
    "goarch": "$(go env GOARCH)",
    "go": "$(go env GOVERSION)",
    "cpu": "${cpu:-unknown}",
    "cores": $(nproc 2>/dev/null || echo 1)
  },
  "after": {
    "commit": "$commit",
    "fig2a_cold_serial_ms": { "min": $best, "runs": [$runs] },
    "tail_tiny_cold_serial_ms": { "min": $tail_best, "runs": [$tail_runs] },
    "fleet_tiny_cold_serial_ms": { "min": $fleet_best, "runs": [$fleet_runs] },
    "fig2a_cell": {
EOF
    awk '/^BenchmarkFig2aCell/ {
        printf "      \"ns_per_op\": %s,\n      \"bytes_per_op\": %s,\n      \"allocs_per_op\": %s\n", $3, $5, $7
    }' "$tmp/cell.txt"
    cat <<EOF
    },
    "latency_record": {
EOF
    awk '/^BenchmarkLatencyRecord/ {
        printf "      \"ns_per_op\": %s,\n      \"bytes_per_op\": %s,\n      \"allocs_per_op\": %s\n", $3, $5, $7
    }' "$tmp/lat.txt"
    cat <<EOF
    }
  }
}
EOF
} >"$out"

echo "wrote $out (fig2a: min ${best}ms; tail tiny: min ${tail_best}ms; fleet tiny: min ${fleet_best}ms)" >&2
