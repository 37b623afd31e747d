#!/usr/bin/env bash
# Same-machine benchmark gate. Runs the repository benchmark
# (perfbench/run.sh, timed mode) on a base tree and on a head tree,
# round after round, alternating which tree goes first, and compares
# the two on the same machine:
#
#   bash scripts/bench-gate.sh BASE_DIR HEAD_DIR
#
# Every workload the head's BENCHMARK.json declares runs for three
# rounds of 10 s per tree, round r at seed r; that takes about six
# minutes on two cores. The gate fails (exit 1) when a head run prints no
# result or reports "correct": false, or when, for a workload, the median
# over rounds of the base/head wall_s ratio or of the head/base
# throughput_per_s ratio falls below 0.6 (the head more than 1.67x
# slower). A base run without a correct result is reported and left out
# of the comparison (the base may predate a workload). Each tree builds
# into its own .bench_build (git-ignored).
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: bash scripts/bench-gate.sh BASE_DIR HEAD_DIR" >&2
	exit 2
fi
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
workloads=$(jq -r '.workloads[].name' "$head/BENCHMARK.json")
rounds=3
seconds=10
threshold=0.6
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT

# run TREE SIDE WORKLOAD ROUND: one timed benchmark run, its report
# copied to stderr and its result line kept in $out/SIDE.WORKLOAD.ROUND
# (empty when the run printed none).
run() {
	local log=$out/$2.$3.$4.log
	echo "## round $4, $3, $2" >&2
	(cd "$1" && bash perfbench/run.sh --workload "$3" --seed "$4" --seconds "$seconds" --trace 0) >"$log" || true
	cat "$log" >&2
	tail -n 1 "$log" | jq -c 'select(has("correct"))' >"$out/$2.$3.$4" 2>/dev/null || true
}

for r in $(seq 1 "$rounds"); do
	for w in $workloads; do
		if [ $((r % 2)) -eq 1 ]; then
			run "$base" base "$w" "$r"
			run "$head" head "$w" "$r"
		else
			run "$head" head "$w" "$r"
			run "$base" base "$w" "$r"
		fi
	done
done

# median: the middle of the numbers on stdin (the mean of the middle two
# for an even count), to three places.
median() {
	sort -g | awk '{v[NR] = $1} END {printf "%.3f\n", (NR % 2) ? v[(NR + 1) / 2] : (v[NR / 2] + v[NR / 2 + 1]) / 2}'
}

fail=0
printf '%-12s %5s %10s %10s  %s\n' workload pairs "wall" "throughput" verdict
for w in $workloads; do
	walls=() thrs=() problems=()
	for r in $(seq 1 "$rounds"); do
		h=$out/head.$w.$r b=$out/base.$w.$r
		if [ ! -s "$h" ]; then
			problems+=("round $r: head printed no result")
			continue
		fi
		if [ "$(jq -r .correct "$h")" != true ]; then
			problems+=("round $r: head correct=false ($(jq -r .failed "$h") of $(jq -r .attempted "$h") failed)")
		fi
		if [ ! -s "$b" ] || [ "$(jq -r .correct "$b")" != true ]; then
			echo "# $w round $r: base has no correct result; pair left out" >&2
			continue
		fi
		walls+=("$(jq -rn --slurpfile b "$b" --slurpfile h "$h" '$b[0].metrics.wall_s.value / $h[0].metrics.wall_s.value')")
		thrs+=("$(jq -rn --slurpfile b "$b" --slurpfile h "$h" '$h[0].metrics.throughput_per_s.value / $b[0].metrics.throughput_per_s.value')")
	done
	wall=- thr=-
	if [ ${#walls[@]} -gt 0 ]; then
		wall=$(printf '%s\n' "${walls[@]}" | median)
		thr=$(printf '%s\n' "${thrs[@]}" | median)
		for m in "wall_s $wall" "throughput_per_s $thr"; do
			read -r name ratio <<<"$m"
			if awk -v x="$ratio" -v t="$threshold" 'BEGIN {exit !(x < t)}'; then
				problems+=("median $name ratio $ratio below $threshold")
			fi
		done
	fi
	verdict=ok
	if [ ${#problems[@]} -gt 0 ]; then
		verdict="FAIL: $(printf '%s; ' "${problems[@]}")"
		verdict=${verdict%; }
		fail=1
	elif [ ${#walls[@]} -eq 0 ]; then
		verdict="not compared (no base result)"
	fi
	printf '%-12s %5d %10s %10s  %s\n' "$w" ${#walls[@]} "$wall" "$thr" "$verdict"
done
exit $fail
