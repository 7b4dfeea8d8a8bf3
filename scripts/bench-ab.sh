#!/usr/bin/env bash
# bench-ab.sh runs paired A/B runs of the frozen end-to-end benchmark
# (bash benchmark/run.sh) on one workload and prints every run's
# end-to-end metrics; judging the pairs is left to the reader.
#
#   bash scripts/bench-ab.sh <refA> <refB> <workload> <pairs> <seed>
#   make bench-ab A=<ref> B=<ref> W=<workload> PAIRS=<n> SEED=<s>
#
# Both refs are checked out as detached git worktrees under
# .bench_build/ab/ and each is built by its own benchmark/run.sh, which
# also sets the run length. Pairs alternate which side runs first (A B,
# B A, A B, ...), so slow drift of the host hits both sides alike. Every
# run is in the foreground under `timeout`, and an EXIT trap removes both
# worktrees, so nothing outlives the script. Needs git and jq.
set -euo pipefail

if [ $# -ne 5 ]; then
	echo "usage: $0 <refA> <refB> <workload> <pairs> <seed>" >&2
	exit 2
fi
refA=$1 refB=$2 workload=$3 pairs=$4 seed=$5
# One run is a build (under a minute from an empty cache) plus the
# benchmark's 20 s measurement; 300 s only stops a hung run.
limit=300

root=$(git rev-parse --show-toplevel)
cd "$root"
shaA=$(git rev-parse --verify "$refA^{commit}")
shaB=$(git rev-parse --verify "$refB^{commit}")
metrics=$(jq -r '[.end_to_end[].name] | join(" ")' BENCHMARK.json)
ab="$root/.bench_build/ab"

cleanup() {
	for side in a b; do
		git worktree remove --force "$ab/$side" >/dev/null 2>&1 || rm -rf "$ab/$side"
	done
	git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

mkdir -p "$ab"
cleanup
git worktree add --quiet --detach "$ab/a" "$shaA"
git worktree add --quiet --detach "$ab/b" "$shaB"

# run prints one line for one run of side $2 in pair $1: the driver line's
# correctness fields and the end-to-end metrics in BENCHMARK.json order.
status=0
run() {
	local pair=$1 side=$2 dir sha out rc=0
	if [ "$side" = A ]; then dir="$ab/a" sha=$shaA; else dir="$ab/b" sha=$shaB; fi
	out=$(cd "$dir" && timeout --kill-after=10 "$limit" \
		bash benchmark/run.sh -workload "$workload" -trace 0 -seed "$seed" 2>&1) || rc=$?
	local line
	line=$(printf '%s\n' "$out" | tail -n 1)
	if ! printf '%s' "$line" | jq -e .metrics >/dev/null 2>&1; then
		echo "pair=$pair side=$side ref=${sha:0:10} exit=$rc no result: $(printf '%s' "$line" | cut -c1-200)"
		status=1
		return
	fi
	[ "$rc" -eq 0 ] || status=1
	printf 'pair=%s side=%s ref=%s exit=%s %s\n' "$pair" "$side" "${sha:0:10}" "$rc" \
		"$(printf '%s' "$line" | jq -r --arg names "$metrics" '
			"correct=\(.correct) failed=\(.failed) " +
			([($names | split(" ")[]) as $n | "\($n)=\(.metrics[$n].value)"] | join(" "))')"
}

echo "A=$refA (${shaA:0:10}) B=$refB (${shaB:0:10}) workload=$workload pairs=$pairs seed=$seed"
for ((p = 1; p <= pairs; p++)); do
	if ((p % 2)); then
		run "$p" A
		run "$p" B
	else
		run "$p" B
		run "$p" A
	fi
done
exit "$status"
