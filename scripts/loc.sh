#!/bin/sh
# loc.sh [ref] — the size figure every PR of this round reports: non-test
# Go lines outside benchmark/ in the working tree (untracked files
# included) and, given a git ref, the delta against it with the packages
# that moved.
set -euf # -f: the pathspecs below are for git, not the shell

cd "$(dirname "$0")/.."

# per_dir: "path:count" or "ref:path:count" lines in, "<dir> <lines>" out.
per_dir() {
	awk -F: '{ d = $(NF-1); if (!sub(/\/[^\/]*$/, "", d)) d = "."; n[d] += $NF }
		END { for (d in n) print d, n[d] }'
}
files="*.go :!benchmark/ :!*_test.go"

# shellcheck disable=SC2086
now=$(git grep -c --untracked '' -- $files | per_dir)
total=$(echo "$now" | awk '{ s += $2 } END { print s }')
echo "non-test Go lines outside benchmark/: $total"

[ $# -ge 1 ] || exit 0
# shellcheck disable=SC2086
base=$(git grep -c '' "$1" -- $files | per_dir)
{ echo "$base" | sed 's/^/base /'; echo "$now" | sed 's/^/now /'; } | awk -v ref="$1" '
	$1 == "base" { b[$2] = $3; was += $3 }
	$1 == "now"  { n[$2] = $3; is += $3 }
	END {
		printf "delta against %s: %+d (was %d)\n", ref, is - was, was
		for (d in b) seen[d]; for (d in n) seen[d]
		for (d in seen) if (n[d] != b[d]) printf "  %+6d  %s\n", n[d] - b[d], d | "sort -k2"
	}'
