#!/usr/bin/env bash
# Usage: scripts/mutants.sh [NAME...]
#
# Runs the mutant table, scripts/mutants.txt (its header gives the row
# format): each mutant is applied to a temporary copy of the working tree,
# its package's tests are built with `go test -c`, and each test the row
# names runs on its own. It prints one line per mutant:
#
#   - killed: every named test fails;
#   - golden-only: a named test passes, but TestGoldenFigureBytes or
#     TestGoldenCycleIdentity fails, so only a pinned digest catches it;
#   - survived: neither;
#   - stale: an original text does not occur exactly once in its file, the
#     mutant does not build, or a named test does not exist, so the row no
#     longer describes the code.
#
# With NAMEs, only those mutants run. The exit status is 1 when a mutant
# survived or is stale, 2 on a usage error.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
table=$root/scripts/mutants.txt
goldens='TestGoldenFigureBytes|TestGoldenCycleIdentity'

# Each row, split on tabs: empty fields are kept.
names=() files=() origs=() repls=() pkgs=() tests=()
while IFS= read -r line || [ -n "$line" ]; do
	case $line in '' | '#'*) continue ;; esac
	row=()
	rest=$line
	while [[ $rest == *$'\t'* ]]; do
		row+=("${rest%%$'\t'*}")
		rest=${rest#*$'\t'}
	done
	row+=("$rest")
	if [ ${#row[@]} -ne 6 ]; then
		echo "mutants.sh: malformed row (want 6 tab-separated fields): $line" >&2
		exit 2
	fi
	names+=("${row[0]}") files+=("${row[1]}") origs+=("${row[2]}")
	repls+=("${row[3]}") pkgs+=("${row[4]}") tests+=("${row[5]}")
done < "$table"

# The mutants, in table order, each once.
mutants=()
for n in "${names[@]}"; do
	case " ${mutants[*]} " in *" $n "*) ;; *) mutants+=("$n") ;; esac
done
if [ $# -gt 0 ]; then
	for n in "$@"; do
		case " ${mutants[*]} " in *" $n "*) ;; *)
			echo "mutants.sh: no mutant $n in $table" >&2
			exit 2
			;;
		esac
	done
	mutants=("$@")
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/src"
(cd "$root" && git ls-files -z -co --exclude-standard |
	while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done |
	tar --null -T - -cf -) | tar -xf - -C "$tmp/src"

# edit FILE ORIG REPL: replaces the one occurrence of ORIG in FILE (under
# the copy) by REPL, or fails when ORIG does not occur exactly once.
edit() {
	awk -v orig="$2" -v repl="$3" '
		{ text = text $0 "\n" }
		END {
			i = index(text, orig)
			if (orig == "" || i == 0 || index(substr(text, i + 1), orig) != 0)
				exit 1
			printf "%s%s%s", substr(text, 1, i - 1), repl, substr(text, i + length(orig))
		}' "$tmp/src/$1" > "$tmp/edited" && mv "$tmp/edited" "$tmp/src/$1"
}

# runs BIN DIR PATTERN: runs the tests matching PATTERN; prints "none" when
# none matches, "fail" when one fails and "pass" otherwise.
runs() {
	local out
	if out=$(cd "$2" && "$1" -test.count=1 -test.timeout=10m -test.run "^($3)\$" 2>&1); then
		case $out in *"no tests to run"*) echo none ;; *) echo pass ;; esac
	else
		echo fail
	fi
}

bad=0
for m in "${mutants[@]}"; do
	status= detail= pkg= want= touched=()
	for i in "${!names[@]}"; do
		[ "${names[$i]}" = "$m" ] || continue
		if [ -z "$pkg" ]; then
			pkg=${pkgs[$i]} want=${tests[$i]}
		fi
		touched+=("${files[$i]}")
		if ! edit "${files[$i]}" "${origs[$i]}" "${repls[$i]}"; then
			status=stale detail="original text not found exactly once in ${files[$i]}"
			break
		fi
	done
	if [ -z "$status" ] && ! (cd "$tmp/src" && go test -c -o "$tmp/test.bin" "$pkg") > "$tmp/build.log" 2>&1; then
		status=stale detail="does not build"
	fi
	if [ -z "$status" ]; then
		dir=$tmp/src/${pkg#./}
		failed=() passed=()
		if [ "$want" != - ]; then
			IFS=, read -r -a names_want <<< "$want"
			for t in "${names_want[@]}"; do
				case $(runs "$tmp/test.bin" "$dir" "$t") in
				fail) failed+=("$t") ;;
				pass) passed+=("$t") ;;
				none) status=stale detail="no test $t in $pkg" ;;
				esac
			done
		fi
		if [ -n "$status" ]; then
			:
		elif [ "$want" != - ] && [ ${#passed[@]} -eq 0 ]; then
			status=killed detail="${failed[*]}"
		elif [ "$(runs "$tmp/test.bin" "$dir" "$goldens")" = fail ]; then
			status=golden-only detail="${passed[*]:-no named test}"
			[ ${#passed[@]} -eq 0 ] || detail="$detail passed"
		else
			status=survived detail="${passed[*]:-no named test}"
			[ ${#passed[@]} -eq 0 ] || detail="$detail passed"
		fi
	fi
	case $status in survived | stale) bad=1 ;; esac
	printf '%-12s %s (%s)\n' "$status" "$m" "$detail"
	for f in "${touched[@]}"; do
		cp "$root/$f" "$tmp/src/$f"
	done
done
exit $bad
