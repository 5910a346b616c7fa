#!/usr/bin/env bash
# Usage: scripts/inlining.sh [REF]
#
# Prints the compiler's inlining and devirtualization decisions for
# ./cmd/figures, built as `go build` builds it (with cmd/figures/default.pgo),
# one line per file and decision with its count, sorted, without line
# numbers. The PGO profile names a call site by its line offset within the
# caller, so an edit that moves a hot call can drop its profile-guided
# inlining without changing any output; this list shows it.
#
# With REF (a commit, branch or tag), it also builds REF in a temporary git
# worktree and prints the diff of the two lists instead: lines starting
# with - are decisions only REF makes, lines starting with + only the
# working tree. Equal lists print nothing. The exit status is non-zero only
# when a build fails, never because the lists differ.
set -euo pipefail

root=$(git rev-parse --show-toplevel)

decisions() { # decisions DIR
	local out
	if ! out=$(cd "$1" && go build -o /dev/null -gcflags='rocktm/...=-m' ./cmd/figures 2>&1); then
		# Rebuild without -m so that only the errors are printed.
		(cd "$1" && go build -o /dev/null ./cmd/figures) >&2 || true
		echo "inlining.sh: building ./cmd/figures in $1 failed" >&2
		return 1
	fi
	printf '%s\n' "$out" |
		{ grep -E 'inlining call to|devirtualiz' || true; } |
		sed -E 's/:[0-9]+:[0-9]+//' | sort | uniq -c
}

if [ $# -eq 0 ]; then
	decisions "$root"
	exit 0
fi

tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/ref" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/ref" "$1"
decisions "$tmp/ref" > "$tmp/ref.txt"
decisions "$root" > "$tmp/head.txt"
diff -u --label "$1" --label "working tree" "$tmp/ref.txt" "$tmp/head.txt" || true
