#!/bin/sh
# Compares the checkout against a parent revision on one benchmark workload,
# in alternating pairs. Run it from the repository root:
#
#   make bench-pairs PARENT=<rev> WORKLOAD=<workload> PAIRS=10 SEED=<first seed>
#   sh scripts/bench-pairs.sh <rev> <workload> <pairs> <first seed>
#
# The parent is checked out as a repository of its own in
# .bench_build/parent/ (a shared clone, detached at the parent), so Go
# stamps the parent's build with the parent's revision; an extracted tree
# inside the checkout would be stamped from the checkout's .git, and a git
# worktree has only a .git file, which Go's VCS stamping does not read. The
# parent's build cache, .bench_build/parent/.bench_build/, survives reruns.
# Pair i runs seed SEED+i on both sides, the checkout
# first on even i and the parent first on odd i, each as
# `bash bench/run.sh --workload <workload> --seed <seed> --seconds 15
# --trace 0`. Every result line and stderr table is kept in
# .bench_build/pairs/<workload>/{change,parent}-seed<N>.{json,log}.
#
# For each end-to-end metric BENCHMARK.json lists, the summary prints both
# sides' medians with quartiles (Python's statistics.quantiles, exclusive
# method, as bench/ reports them), the change/parent ratio of the medians,
# the pairs the change won and a verdict, over the runs that printed a
# correct result. Its last line counts failed operations and the runs left
# out. The verdict applies the metric's bound from BENCHMARK.json:
#   gain        the change won at least 9/10 of the pairs (ties count for
#               neither) and its median beats the parent's by more than the
#               parent's interquartile range (IQR);
#   worse       the change's median is worse than the parent's by more than
#               the bound, relative to the parent's;
#   unresolved  the parent's IQR exceeds the bound relative to its median,
#               and not every change run beats every parent run;
#   same        otherwise.
set -eu

if [ $# -ne 4 ]; then
	echo "usage: $0 <parent rev> <workload> <pairs> <first seed>" >&2
	exit 2
fi
parent=$1 workload=$2 pairs=$3 seed=$4
root=$(pwd)
out=.bench_build/pairs/$workload
rev=$(git rev-parse --verify "$parent^{commit}")

mkdir -p "$out"
if [ -d .bench_build/parent/.bench_build ]; then
	rm -rf .bench_build/parent-cache
	mv .bench_build/parent/.bench_build .bench_build/parent-cache
fi
rm -rf .bench_build/parent
git clone -q --shared --no-checkout . .bench_build/parent
git -C .bench_build/parent checkout -q --detach "$rev"
if [ -d .bench_build/parent-cache ]; then
	mv .bench_build/parent-cache .bench_build/parent/.bench_build
fi
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
# BENCHMARK.json: the end-to-end metrics, in order, which way is better and
# each bound.
FILENAME ~ /BENCHMARK\.json$/ {
	if ($0 ~ /"end_to_end"/) { inE2E = 1; next }
	if (inE2E && $0 ~ /^  \]/) { inE2E = 0 }
	if (inE2E && match($0, /"name": "[^"]*"/)) { name = substr($0, RSTART + 9, RLENGTH - 10); metrics[++nm] = name }
	if (inE2E && match($0, /"better": "[^"]*"/)) { better[name] = substr($0, RSTART + 11, RLENGTH - 12) }
	if (inE2E && match($0, /"bound": [0-9.eE+-]+/)) { bound[name] = substr($0, RSTART + 9, RLENGTH - 9) + 0 }
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
# verdict names the outcome for metric mt from the sorted values pa[1..np]
# and ca[1..nc], their quartiles and the pairs won (see the header).
function verdict(mt, np, nc, wins, both,    s, gap, iqr, worse, apart) {
	s = (better[mt] == "lower") ? -1 : 1
	gap = s * (c2 - p2); iqr = p3 - p1
	worse = -gap > bound[mt] * (p2 < 0 ? -p2 : p2)
	apart = (s < 0) ? (ca[nc] < pa[1]) : (ca[1] > pa[np])
	if (both > 0 && wins * 10 >= 9 * both && gap > iqr) return "gain"
	if (worse) return "worse"
	if (iqr > bound[mt] * (p2 < 0 ? -p2 : p2) && !apart) return "unresolved"
	return "same"
}
END {
	printf "%-18s %-7s %-30s %-30s %-13s %-6s %s\n", "metric", "better", "parent median [q1-q3]", "change median [q1-q3]", "change/parent", "wins", "verdict"
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
		printf "%-18s %-7s %-30s %-30s %-13s %-6s %s\n", mt, better[mt], ps, cs, r, wins "/" both, verdict(mt, np, nc, wins, both)
	}
	printf "failed operations: parent %d, change %d; runs without a correct result: parent %d, change %d\n", failed["parent"], failed["change"], bad["parent"], bad["change"]
}' "$root/BENCHMARK.json" "$out"/*.json
