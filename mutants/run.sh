#!/usr/bin/env bash
# Mutation check of the tests that pin the engine's guarantees.
#
#   bash mutants/run.sh [tree-ish]
#
# Each mutants/*.patch breaks one guarantee on purpose.  Its header names
# the package (# pkg:) and the go test -run pattern (# run:) of the test
# that must catch it, and optionally a -count (# count:).  For every patch
# the script unpacks a clean copy of tree-ish (default HEAD) into a
# temporary directory, applies the patch there with git apply and runs the
# test.  It fails if a patch no longer applies, if the mutated copy does
# not build, or if the test passes: a stale patch makes its author find
# the guarantee again, and a mutant that survives is a test gone vacuous.
set -uo pipefail

root=$(git rev-parse --show-toplevel) || exit 2
tree=${1:-HEAD}
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

failed=0
for patch in "$root"/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	pkg=$(sed -n 's/^# pkg: //p' "$patch")
	run=$(sed -n 's/^# run: //p' "$patch")
	count=$(sed -n 's/^# count: //p' "$patch")
	if [ -z "$pkg" ] || [ -z "$run" ]; then
		echo "BROKEN   $name: no '# pkg:' or '# run:' header"
		failed=1
		continue
	fi
	dir=$work/$name
	mkdir "$dir"
	git -C "$root" archive "$tree" | tar -x -C "$dir" || exit 2
	if ! (cd "$dir" && git apply "$patch"); then
		echo "STALE    $name: the patch no longer applies"
		failed=1
		continue
	fi
	log=$work/$name.log
	if (cd "$dir" && go test -count="${count:-1}" -timeout 5m -run "$run" "$pkg") >"$log" 2>&1; then
		echo "SURVIVED $name: go test -run '$run' $pkg passed"
		failed=1
	elif grep -q '\[build failed\]\|\[setup failed\]' "$log"; then
		echo "BROKEN   $name: the mutated copy does not build"
		cat "$log"
		failed=1
	else
		echo "killed   $name: go test -run '$run' $pkg failed"
	fi
done
exit $failed
