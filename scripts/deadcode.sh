#!/bin/sh
# Fails when a function that no program reaches is not listed in
# scripts/deadcode.allow, or when a listed function is reached or no longer
# declared. Run it from the repository root:
#
#   make deadcode
#   sh scripts/deadcode.sh
#
# The programs are every cmd/* and examples/* main package and the bench
# binary, built with inlining off (-gcflags=all=-l) into a temporary
# directory, so a call the compiler would inline still leaves its callee's
# symbol. A function is reached when its symbol is among their text symbols
# (go tool nm). The functions checked are every func declared in the
# non-test files of the root module's non-main packages outside
# internal/lint (go list ./..., which skips vendor/; bench/ is its own
# module). A symbol reads as nm prints it, type parameters dropped:
# alertmanet/internal/geo.Rect.Contains, alertmanet/internal/sim.(*Engine).Run.
#
# scripts/deadcode.allow holds one function a line: its symbol, then the
# reason it stays although no program calls it. Blank lines and lines that
# start with # are ignored.
set -eu

allow=scripts/deadcode.allow
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM

for d in cmd/*/ examples/*/; do
	d=${d%/}
	go build -gcflags=all=-l -o "$tmp/bin/$(echo "$d" | tr / -)" "./$d"
done
(cd bench && go build -gcflags=all=-l -o "$tmp/bin/bench" .)

for b in "$tmp"/bin/*; do
	go tool nm "$b"
done | awk '$2 == "T" || $2 == "t" { print $3 }' | sort -u >"$tmp/reached"

go list -f '{{if ne .Name "main"}}{{$p := .ImportPath}}{{range .GoFiles}}{{$p}} {{$.Dir}}/{{.}}{{"\n"}}{{end}}{{end}}' ./... |
	awk '$1 != "alertmanet/internal/lint" && $1 !~ /^alertmanet\/internal\/lint\// && NF == 2' >"$tmp/files"

# declared: one line per func, "symbol file:line lines".
while read -r pkg file; do
	awk -v pkg="$pkg" -v file="${file#"$PWD"/}" '
	function flush() {
		if (sym != "") print sym, file ":" start, NR - start
		sym = ""
	}
	/^func / {
		flush()
		s = $0; sub(/^func /, "", s)
		recv = ""
		if (s ~ /^\(/) {
			recv = s; sub(/\).*/, "", recv); sub(/^\(/, "", recv)
			sub(/^[^)]*\) */, "", s)
			n = split(recv, parts, " "); recv = parts[n]
			sub(/\[.*/, "", recv)
			if (recv ~ /^\*/) recv = "(" recv ")"
			recv = recv "."
		}
		name = s; sub(/[[(].*/, "", name)
		if (recv == "" && (name == "init" || name == "_")) next
		sym = pkg "." recv name; start = NR
		if ($0 ~ /}$/) { print sym, file ":" start, 1; sym = "" }
		next
	}
	sym != "" && /^}/ { print sym, file ":" start, NR - start + 1; sym = "" }
	' "$file"
done <"$tmp/files" | sort >"$tmp/declared"

awk -v allow="$allow" -v reached="$tmp/reached" '
BEGIN {
	while ((getline line < reached) > 0) {
		# Drop instantiation brackets: pkg.(*Set[go.shape.int]).Add.
		while (match(line, /\[[^][]*\]/)) line = substr(line, 1, RSTART - 1) substr(line, RSTART + RLENGTH)
		hit[line] = 1
	}
	while ((getline line < allow) > 0) {
		n++
		if (line ~ /^[ \t]*(#|$)/) continue
		split(line, f, /[ \t]+/)
		why = line; sub(/^[^ \t]+[ \t]*/, "", why)
		if (why == "") { bad = bad sprintf("%s:%d: %s has no reason\n", allow, n, f[1]); continue }
		if (f[1] in listed) { bad = bad sprintf("%s:%d: %s is listed twice\n", allow, n, f[1]); continue }
		listed[f[1]] = n; entries++
	}
}
{
	declared[$1] = 1
	if ($1 in hit) {
		if ($1 in listed) bad = bad sprintf("%s:%d: %s is listed but reached\n", allow, listed[$1], $1)
		next
	}
	if (!($1 in listed)) { dead = dead sprintf("%s: %s (%d lines)\n", $2, $1, $3); nd++; lines += $3 }
}
END {
	for (s in listed) if (!(s in declared)) bad = bad sprintf("%s:%d: %s is listed but not declared\n", allow, listed[s], s)
	if (dead != "") printf "unreached by any program and not in %s (%d functions, %d lines):\n%s", allow, nd, lines, dead
	if (bad != "") printf "%s", bad
	if (dead != "" || bad != "") exit 1
	printf "deadcode: every function is reached by a program or listed (%d entries in %s)\n", entries, allow
}' "$tmp/declared"
