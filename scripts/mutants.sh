#!/bin/sh
# mutants.sh — the swarm sweep's mutation check. It copies the working
# tree to a temporary directory, runs the sweep (TestSweep in
# internal/swarm) there once as it is, then once per mutant below, each
# applied as a one-line patch to a fresh copy. Every mutant must fail the
# sweep, reported as its property and never as the other one. It exits
# non-zero if the unmutated sweep fails, a mutant survives or is reported
# as the wrong property, or a patch no longer applies (the line it
# replaces is gone or not unique).
#
#   sh scripts/mutants.sh
set -eu

cd "$(dirname "$0")/.."
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT INT TERM
tar --exclude=.git -cf - . | (mkdir "$tmp/tree" && cd "$tmp/tree" && tar -xf -)

exactly_once='(c) exactly-once'
acked_missing='(e) no acknowledged write missing'

sweep() { # dir log
	(cd "$1" && go test -count=1 -run '^TestSweep$' ./internal/swarm/) >"$2" 2>&1
}

if ! sweep "$tmp/tree" "$tmp/clean.log"; then
	cat "$tmp/clean.log"
	echo "mutants: the unmutated sweep fails" >&2
	exit 1
fi

failed=0
# mutant NAME FILE WANT OTHER OLD NEW: replace the one line of FILE equal
# to OLD with NEW, run the sweep, and require a failure reported as WANT
# and never as OTHER.
mutant() {
	dir="$tmp/$1"
	cp -R "$tmp/tree" "$dir"
	n=$(OLD="$5" awk '$0 == ENVIRON["OLD"]' "$dir/$2" | wc -l)
	if [ "$n" -ne 1 ]; then
		echo "$1: patch does not apply: $n lines of $2 match" >&2
		failed=1
		return
	fi
	OLD="$5" NEW="$6" awk '$0 == ENVIRON["OLD"] { print ENVIRON["NEW"]; next } { print }' \
		"$tmp/tree/$2" >"$dir/$2"
	if sweep "$dir" "$dir.log"; then
		echo "$1: SURVIVED the sweep" >&2
		failed=1
	elif ! grep -qF "$3" "$dir.log" || grep -qF "$4" "$dir.log"; then
		grep -F -- '--- FAIL' "$dir.log" >&2 || true
		grep -F 'check:' "$dir.log" | head -3 >&2 || true
		echo "$1: killed, but not reported as $3 alone" >&2
		failed=1
	else
		echo "$1: killed as $3 by $(grep -c -- '--- FAIL: TestSweep/' "$dir.log") sweep runs"
	fi
}

# M1: the exactly-once guard never finds a put's record.
mutant M1 internal/replication/engine.go "$exactly_once" "$acked_missing" \
	'	if ap, ok := e.appliedPuts[entry.OID]; ok && ap.base == req.BaseVersion && ap.crc == crc {' \
	'	if ap, ok := e.appliedPuts[entry.OID]; false && ok && ap.base == req.BaseVersion && ap.crc == crc {'

# M2: a master-group member that is not the leader skips a put's replay.
mutant M2 internal/site/group.go "$acked_missing" "$exactly_once" \
	'		if cmd.Put == nil {' \
	'		if cmd.Put == nil || !g.node.IsLeader() {'

exit "$failed"
