#!/bin/sh
# Compares the checkout against a parent revision on one benchmark workload,
# in alternating pairs. Run it from the repository root:
#
#   make bench-pairs PARENT=<rev> WORKLOAD=<workload> PAIRS=10 SEED=<first seed>
#   sh scripts/bench-pairs.sh <rev> <workload> <pairs> <first seed>
#
# The parent is git-archived into .bench_build/parent/ (its build cache
# survives reruns). Pair i runs seed SEED+i on both sides, the checkout
# first on even i and the parent first on odd i, each as
# `bash bench/run.sh --workload <workload> --seed <seed> --seconds 15
# --trace 0`. Every result line and stderr table is kept in
# .bench_build/pairs/<workload>/{change,parent}-seed<N>.{json,log}.
#
# For each end-to-end metric BENCHMARK.json lists, the summary prints both
# sides' medians with quartiles (Python's statistics.quantiles, exclusive
# method, as bench/ reports them), the change/parent ratio of the medians
# and the pairs the change won, over the runs that printed a correct
# result. Its last line counts failed operations and the runs left out.
set -eu

if [ $# -ne 4 ]; then
	echo "usage: $0 <parent rev> <workload> <pairs> <first seed>" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3 seed=$4
root=$(pwd)
out=.bench_build/pairs/$workload

mkdir -p .bench_build/parent "$out"
find .bench_build/parent -mindepth 1 -maxdepth 1 ! -name .bench_build -exec rm -rf {} +
git archive "$parent" | tar -x -C .bench_build/parent
rm -f "$out"/*.json "$out"/*.log

# run <side> <seed>: one benchmark run, its last stdout line kept as JSON.
run() {
	dir=$root
	[ "$1" = parent ] && dir=$root/.bench_build/parent
	(cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$2" \
		--seconds 15 --trace 0 2>"$root/$out/$1-seed$2.log") |
		tail -n 1 >"$out/$1-seed$2.json" || true
}

i=0
while [ "$i" -lt "$pairs" ]; do
	s=$((seed + i))
	if [ $((i % 2)) -eq 0 ]; then
		run change "$s"
		run parent "$s"
	else
		run parent "$s"
		run change "$s"
	fi
	echo "pair $((i + 1))/$pairs (seed $s) done" >&2
	i=$((i + 1))
done

echo "$workload: $pairs pairs, seeds $seed-$((seed + pairs - 1)), parent $parent"
awk '
# BENCHMARK.json: the end-to-end metrics, in order, and which way is better.
FILENAME ~ /BENCHMARK\.json$/ {
	if ($0 ~ /"end_to_end"/) { inE2E = 1; next }
	if (inE2E && $0 ~ /^  \]/) { inE2E = 0 }
	if (inE2E && match($0, /"name": "[^"]*"/)) { name = substr($0, RSTART + 9, RLENGTH - 10); metrics[++nm] = name }
	if (inE2E && match($0, /"better": "[^"]*"/)) { better[name] = substr($0, RSTART + 11, RLENGTH - 12) }
	next
}
# One result line: side and seed from the file name.
{
	f = FILENAME; sub(/.*\//, "", f); sub(/\.json$/, "", f)
	side = f; sub(/-seed.*/, "", side)
	sd = f; sub(/.*-seed/, "", sd)
	seeds[sd] = 1
	if (match($0, /"failed":[0-9]+/)) failed[side] += substr($0, RSTART + 9, RLENGTH - 9)
	if ($0 !~ /"correct":true/) { bad[side]++; next }
	for (k = 1; k <= nm; k++) {
		if (match($0, "\"" metrics[k] "\":\\{\"value\":[^,}]*")) {
			v = substr($0, RSTART, RLENGTH); sub(/.*:/, "", v)
			val[side, metrics[k], sd] = v + 0
		}
	}
}
# q sets Q1, Q2, Q3 of the n values in a[1..n] (sorted in place).
function q(a, n,    i, j, t, m, d) {
	for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t }
	if (n == 1) { Q1 = Q2 = Q3 = a[1]; return }
	m = n + 1
	for (i = 1; i <= 3; i++) {
		j = int(i * m / 4); if (j < 1) j = 1; if (j > n - 1) j = n - 1
		d = i * m - j * 4
		Qs[i] = (a[j] * (4 - d) + a[j + 1] * d) / 4
	}
	Q1 = Qs[1]; Q2 = Qs[2]; Q3 = Qs[3]
}
END {
	printf "%-18s %-7s %-30s %-30s %-13s %s\n", "metric", "better", "parent median [q1-q3]", "change median [q1-q3]", "change/parent", "wins"
	for (k = 1; k <= nm; k++) {
		mt = metrics[k]; np = nc = wins = both = 0
		delete pa; delete ca
		for (sd in seeds) {
			hp = ((("parent", mt, sd) in val)); hc = ((("change", mt, sd) in val))
			if (hp) pa[++np] = val["parent", mt, sd]
			if (hc) ca[++nc] = val["change", mt, sd]
			if (hp && hc) {
				both++
				p = val["parent", mt, sd]; c = val["change", mt, sd]
				if ((better[mt] == "lower" && c < p) || (better[mt] == "higher" && c > p)) wins++
			}
		}
		if (np == 0 || nc == 0) { printf "%-18s %-7s (no values)\n", mt, better[mt]; continue }
		q(pa, np); p1 = Q1; p2 = Q2; p3 = Q3
		q(ca, nc); c1 = Q1; c2 = Q2; c3 = Q3
		ps = sprintf("%.5g [%.5g-%.5g]", p2, p1, p3)
		cs = sprintf("%.5g [%.5g-%.5g]", c2, c1, c3)
		r = (p2 != 0) ? sprintf("%.3f", c2 / p2) : "-"
		printf "%-18s %-7s %-30s %-30s %-13s %d/%d\n", mt, better[mt], ps, cs, r, wins, both
	}
	printf "failed operations: parent %d, change %d; runs without a correct result: parent %d, change %d\n", failed["parent"], failed["change"], bad["parent"], bad["change"]
}' "$root/BENCHMARK.json" "$out"/*.json
