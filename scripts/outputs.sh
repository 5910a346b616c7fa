#!/usr/bin/env bash
# Usage: scripts/outputs.sh REF
#
# Builds cmd/figures and cmd/msf at REF (a commit, branch or tag) in a
# temporary git worktree and in the working tree, runs both builds on the
# same inputs and prints the name of every output whose bytes or exit
# status differ:
#
#   - list, typo: `figures -exp list`, and the error of an unknown -exp;
#   - NAME: every experiment in both trees' `figures -exp list`, run alone
#     as `figures -exp NAME -ops 120 -threads 1,2 -parallel 1 -no-cache
#     -csv -json` (a name in only one list is printed with the tree that
#     has it);
#   - msf: `msf -variant opt-le -threads 2 -dim 32`;
#   - all, all/t.json, all/w.json: the standard output and the two capture
#     files of `figures -exp all -ops 60 -threads 1,2 -parallel 1 -no-cache
#     -trace t.json -timeline w.json`.
#
# Equal outputs print nothing. The exit status is non-zero only when a
# build fails, never because outputs differ.
set -euo pipefail

if [ $# -ne 1 ]; then
	echo "usage: scripts/outputs.sh REF" >&2
	exit 2
fi
root=$(git rev-parse --show-toplevel)

tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/src" 2>/dev/null || true
	rm -rf "$tmp"
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$tmp/src" "$1"

build() { # build SRC SIDE
	local cmd
	mkdir -p "$tmp/$2/bin" "$tmp/$2/out"
	for cmd in figures msf; do
		if ! (cd "$1" && go build -o "$tmp/$2/bin/$cmd" "./cmd/$cmd"); then
			echo "outputs.sh: building ./cmd/$cmd in $1 failed" >&2
			return 1
		fi
	done
}
build "$tmp/src" ref
build "$root" head

# run SIDE OUT CMD ARGS...: runs SIDE's build of CMD in SIDE's output
# directory, writing its standard output to OUT and its exit status to
# OUT.exit.
run() {
	local side=$1 out=$2 cmd=$3 status=0
	shift 3
	(cd "$tmp/$side/out" && "$tmp/$side/bin/$cmd" "$@") > "$tmp/$side/out/$out" 2> "$tmp/$side/out/$out.err" || status=$?
	echo "$status" > "$tmp/$side/out/$out.exit"
}

# differs LABEL OUT [FILE]: prints LABEL when the two sides' FILE (default
# OUT) or OUT's exit statuses differ.
differs() {
	local file=${3:-$2}
	if ! cmp -s "$tmp/ref/out/$file" "$tmp/head/out/$file" ||
		! cmp -s "$tmp/ref/out/$2.exit" "$tmp/head/out/$2.exit"; then
		echo "$1"
	fi
}

for side in ref head; do
	run "$side" list figures -exp list
	run "$side" typo figures -exp no-such-experiment
done
differs list list
differs typo typo typo.err

sort "$tmp/ref/out/list" > "$tmp/ref.names"
sort "$tmp/head/out/list" > "$tmp/head.names"
comm -23 "$tmp/ref.names" "$tmp/head.names" | sed "s|\$| (only in $1)|"
comm -13 "$tmp/ref.names" "$tmp/head.names" | sed 's|$| (only in the working tree)|'
for name in $(comm -12 "$tmp/ref.names" "$tmp/head.names"); do
	for side in ref head; do
		run "$side" "exp-$name" figures -exp "$name" -ops 120 -threads 1,2 -parallel 1 -no-cache -csv -json
	done
	differs "$name" "exp-$name"
done

for side in ref head; do
	run "$side" msf msf -variant opt-le -threads 2 -dim 32
	run "$side" all figures -exp all -ops 60 -threads 1,2 -parallel 1 -no-cache -trace t.json -timeline w.json
done
differs msf msf
differs all all
differs all/t.json all t.json
differs all/w.json all w.json
