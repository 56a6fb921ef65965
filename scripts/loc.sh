#!/bin/sh
# Print non-test and test Go line counts per internal/* package (wc -l, so
# comments and blank lines count) — the figures ROADMAP.md and CHANGES.md
# quote when a PR claims to shrink a package. Run from the repo root.
set -eu
printf '%-22s %9s %9s\n' package non-test test
total=0
total_test=0
for dir in internal/*/; do
	pkg=${dir%/}
	code=$(find "$pkg" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
	test=$(find "$pkg" -maxdepth 1 -name '*_test.go' -exec cat {} + | wc -l)
	printf '%-22s %9d %9d\n' "$pkg" "$code" "$test"
	total=$((total + code))
	total_test=$((total_test + test))
done
printf '%-22s %9d %9d\n' total "$total" "$total_test"
