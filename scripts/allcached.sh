#!/bin/sh
# allcached.sh — fail unless a `figures -progress` run served every cell
# from the result cache.
#
# A warm rerun that missed every entry would recompute the same bytes, so
# comparing its output with the cold run's cannot tell a hit from a miss.
# The run's progress lines can: the report of its last cell, the one with
# the highest done count, must read "figures: N/N cells (N cached) last=...".
# With several workers the reports may print out of order, so that line
# need not be the last one on standard error. A missed, corrupted or
# failed cell leaves it short of N cached.
#
# Usage: scripts/allcached.sh STDERR_FILE   (CI runs it after each warm
# rerun, see .github/workflows/ci.yml)
set -eu

awk '
/^figures: [0-9]+\/[0-9]+ cells \(/ {
	split($2, dt, "/")
	if (!seen || dt[1] + 0 > done) {
		seen = 1; done = dt[1] + 0; total = dt[2] + 0; cached = $4; rest = $5; line = $0
	}
}
END {
	if (seen && done == total && cached == "(" total && rest == "cached)")
		exit 0
	if (!seen)
		line = "no progress line"
	printf "allcached: %s: not every cell was served from the cache: %s\n", FILENAME, line > "/dev/stderr"
	exit 1
}' "$1"
