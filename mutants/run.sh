#!/usr/bin/env bash
# Runs the mutant catalogue. Each *.patch in this directory re-opens one
# fixed bug or removes one mechanism, and names the command that must
# catch it. The text above a patch's first "diff --git" line is its
# header, which git apply ignores:
#
#   From: CHANGES.md, PR <n>   (the entry that recorded the check)
#   Kill: <command, run from the root of the tree>
#   <what the patch breaks>
#
# For each patch, in a temporary copy of the tree (tracked files plus
# untracked ones not ignored): the kill command must pass on the untouched
# copy; the patch must apply to a fresh copy, whose packages must still
# compile; and the kill command must fail there. A patch that no longer
# applies fails the run, so a change that rewrites the code a mutant
# touches re-expresses the mutant in the same change.
#
# Usage: bash mutants/run.sh   (no flags; exits non-zero on any failure)
set -u
root=$(cd "$(dirname "$0")/.." && pwd)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
tree=$work/tree # every copy sits at one path, so go's build cache carries over
log=$work/log

fresh() {
	rm -rf "$tree" && mkdir "$tree"
	git -C "$root" ls-files -z --cached --others --exclude-standard |
		tar -C "$root" --null -T - --ignore-failed-read -cf - 2>/dev/null | tar -xf - -C "$tree"
}

in_tree() { (cd "$tree" && bash -c "$1") >"$log" 2>&1; }

failed=0
fail() {
	echo "FAIL $1"
	[ -s "$log" ] && tail -n 20 "$log" | sed 's/^/    /'
	failed=$((failed + 1))
}

# reason prints the first line a test reported, or its panic, after the
# first "--- FAIL" (a later one can be a t.Logf printed after the failing
# assertion); else the last line a failing test or run reported, or the
# log's last line.
reason() {
	sed -n '/--- FAIL/,$p' "$log" | grep -m1 -E '_test\.go:[0-9]+:|^panic: ' ||
		grep -E '_test\.go:[0-9]+:|^LOST ' "$log" | tail -n1 | grep . || tail -n1 "$log"
}

declare -A baseline # kill command -> pass or fail on the untouched tree
n=0 start=$SECONDS
for patch in "$root"/mutants/*.patch; do
	name=$(basename "$patch") n=$((n + 1)) t=$SECONDS
	kill=$(sed -n 's/^Kill: //p' "$patch" | head -n1)
	: >"$log"
	if [ -z "$kill" ]; then
		fail "$name: no Kill: line in its header"; continue
	fi
	if [ -z "${baseline[$kill]:-}" ]; then
		fresh
		if in_tree "$kill"; then baseline[$kill]=pass; else baseline[$kill]=fail; fi
	fi
	if [ "${baseline[$kill]}" = fail ]; then
		fail "$name: the kill command fails on the untouched tree: $kill"; continue
	fi
	fresh
	if ! in_tree "git apply '$patch'"; then
		fail "$name: does not apply"; continue
	fi
	if ! in_tree "go build \$(go list -f '{{if ne .Name \"main\"}}{{.ImportPath}}{{end}}' ./...)"; then
		fail "$name: the patched tree does not compile"; continue
	fi
	if in_tree "$kill"; then
		: >"$log"; fail "$name: survived: $kill"; continue
	fi
	echo "killed $name ($((SECONDS - t)) s): $(reason | sed 's/^[[:space:]]*//' | cut -c1-200)"
done
echo "$((n - failed))/$n mutants killed in $((SECONDS - start)) s"
[ "$failed" -eq 0 ]
