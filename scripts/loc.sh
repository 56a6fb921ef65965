#!/bin/sh
# Print non-test and test Go line counts per internal/* package, then for
# cmd/, examples/ and the repo root's own Go files (wc -l, so comments and
# blank lines count) — the figures ROADMAP.md and CHANGES.md quote when a
# PR claims to shrink the code. benchmark/ is left out on purpose: it is
# the frozen measuring instrument, not the product. Run from the repo root.
set -eu
row() {
	printf '%-22s %9s %9s\n' "$1" "$2" "$3"
}
total=0
total_test=0
# add label dir [find-options] — count the Go files find selects under dir,
# print them as one row and add them to the totals.
add() {
	label=$1
	shift
	code=$(find "$@" -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	test=$(find "$@" -name '*_test.go' -exec cat {} + | wc -l)
	row "$label" "$code" "$test"
	total=$((total + code))
	total_test=$((total_test + test))
}
row package non-test test
for dir in internal/*/; do
	add "${dir%/}" "${dir%/}" -maxdepth 1
done
row total "$total" "$total_test"
add cmd/ cmd
add examples/ examples
add 'root (*.go)' . -maxdepth 1
row 'repo (no benchmark/)' "$total" "$total_test"
