#!/bin/sh
# Print non-test and test Go line counts per internal/* package, then for
# cmd/, examples/ and the repo root's own Go files (wc -l, so comments and
# blank lines count) — the figures ROADMAP.md and CHANGES.md quote when a
# PR claims to shrink the code. benchmark/ is left out on purpose: it is
# the frozen measuring instrument, not the product. Run from the repo root.
#
#   scripts/loc.sh        counts of the working tree
#   scripts/loc.sh REV    counts of git revision REV and of the working
#                         tree side by side, with the delta on every row
set -eu

# add label dir [find-options] — count the Go files find selects under dir,
# print them as one tab-separated row and add them to the totals.
add() {
	label=$1
	shift
	code=$(find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	test=$(find "$@" -name '*_test.go' -exec cat {} + | wc -l)
	printf '%s\t%d\t%d\n' "$label" "$code" "$test"
	total=$((total + code))
	total_test=$((total_test + test))
}

# count — print every row for the tree in the current directory.
count() {
	total=0
	total_test=0
	for dir in internal/*/; do
		add "${dir%/}" "${dir%/}" -maxdepth 1
	done
	printf 'total\t%d\t%d\n' "$total" "$total_test"
	add cmd/ cmd
	add examples/ examples
	add 'root (*.go)' . -maxdepth 1
	printf 'repo (no benchmark/)\t%d\t%d\n' "$total" "$total_test"
}

if [ $# -eq 0 ]; then
	printf '%-22s %9s %9s\n' package non-test test
	count | awk -F '\t' '{ printf "%-22s %9d %9d\n", $1, $2, $3 }'
	exit 0
fi

rev=$1
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$rev" | tar -x -C "$tmp/"
(cd "$tmp" && count) >"$tmp/.rev"
count >"$tmp/.tree"
printf '%-22s %9s %9s %7s %9s %9s %7s\n' package non-test non-test delta test test delta
printf '%-22s %9s %9s %7s %9s %9s %7s\n' "" "$(printf %.9s "$rev")" tree "" "$(printf %.9s "$rev")" tree ""
# Join the two listings on the row label; a package present on one side
# only counts as 0 on the other.
awk -F '\t' '
	NR == FNR { code[$1] = $2; test[$1] = $3; row[++n] = $1; seen[$1] = 1; next }
	!($1 in seen) { row[++n] = $1; seen[$1] = 1 }
	{ code2[$1] = $2; test2[$1] = $3 }
	END {
		for (i = 1; i <= n; i++) {
			k = row[i]
			printf "%-22s %9d %9d %+7d %9d %9d %+7d\n", k,
				code[k], code2[k], code2[k] - code[k], test[k], test2[k], test2[k] - test[k]
		}
	}' "$tmp/.rev" "$tmp/.tree"
