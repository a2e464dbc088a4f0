#!/usr/bin/env bash
# bench-pairs.sh — the before/after measurement of a performance change:
# alternating parent/change runs of the wall-clock benchmark, then its
# -compare table.
#
#   scripts/bench-pairs.sh <parent-tree> <change-tree> [pairs=10] [seconds=12] [metric=op_p50_us]
#
# Each tree is a checkout (for the parent: `git clone` or `git archive` of
# the parent commit into a scratch directory). Every run goes through the
# tree's own benchmark/run.sh, which builds that tree's source into its
# .bench_build/. Pair i uses seed i on every workload BENCHMARK.json names;
# odd pairs run the parent first, even pairs the change, so a slow spell of
# the host falls on both sides. Results are appended to
# <change-tree>/.bench_build/pairs/{parent,change}.jsonl, and -compare is run
# on them from the change tree's root (it reads ./BENCHMARK.json there).
# After the table: the metric (an end-to-end metric of BENCHMARK.json, lower
# is better) pair by pair, with the pairs the change won — the nine-in-ten
# rule a claimed gain has to meet.
set -euo pipefail
shopt -s inherit_errexit # a run that fails inside $(one …) stops the script

if [ $# -lt 2 ] || [ $# -gt 5 ]; then
	echo "usage: $0 <parent-tree> <change-tree> [pairs=10] [seconds=12] [metric=op_p50_us]" >&2
	exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
seconds=${4:-12}
metric=${5:-op_p50_us}

out="$change/.bench_build/pairs"
mkdir -p "$out"
rm -f "$out/parent.jsonl" "$out/change.jsonl" "$out/pairs.tsv"

workloads=$(awk '/"workloads"/{on=1} /"end_to_end"/{on=0} on && /"name"/{gsub(/[",]/,""); print $2}' "$change/BENCHMARK.json")
[ -n "$workloads" ] || { echo "$0: no workloads in $change/BENCHMARK.json" >&2; exit 1; }

# one <side> <tree> <workload> <seed>: one benchmark run; prints its metric.
one() {
	local json v
	json=$(cd "$2" && bash benchmark/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0 --out "$out/$1.jsonl" | tail -n 1)
	v=$(printf '%s\n' "$json" | sed -n "s/.*\"$metric\":{\"value\":\([0-9.eE+-]*\).*/\1/p")
	[ -n "$v" ] || { echo "$0: the $1 run of $3 reports no $metric" >&2; return 1; }
	printf '%s\n' "$v"
}

for i in $(seq 1 "$pairs"); do
	for w in $workloads; do
		if [ $((i % 2)) -eq 1 ]; then
			p=$(one parent "$parent" "$w" "$i")
			c=$(one change "$change" "$w" "$i")
		else
			c=$(one change "$change" "$w" "$i")
			p=$(one parent "$parent" "$w" "$i")
		fi
		printf '%s\t%s\t%s\t%s\n' "$w" "$i" "$p" "$c" >>"$out/pairs.tsv"
		echo "pair $i/$pairs $w: $metric parent $p change $c" >&2
	done
done

status=0
(cd "$change" && bash benchmark/run.sh -compare "$out/parent.jsonl" "$out/change.jsonl") || status=$?

echo
echo "$metric pair by pair (parent → change), and pairs the change won:"
awk -F'\t' '
	{ row[$1] = row[$1] sprintf("  %.2f→%.2f", $3, $4); n[$1]++; if ($4 + 0 < $3 + 0) won[$1]++; if (!($1 in seen)) { seen[$1] = 1; order[++k] = $1 } }
	END { for (j = 1; j <= k; j++) { w = order[j]; printf "%-16s won %d/%d %s\n", w, won[w], n[w], row[w] } }
' "$out/pairs.tsv"
exit $status
