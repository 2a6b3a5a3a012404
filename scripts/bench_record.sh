#!/usr/bin/env bash
# bench_record.sh — record the benchmark trajectory file BENCH_<pr>.json:
# perfbench (bash perfbench/run.sh) on both workloads over seeds 1–5,
# 20 s each, summarized per end-to-end metric as median, q1 and q3,
# with the host line.
#
#   scripts/bench_record.sh PR [LABEL=CHECKOUT ...]
#
# Each LABEL=CHECKOUT pair is a checkout to measure and the row label it
# gets; the default is this checkout as "change". Give the parent too
# (e.g. parent=/path/to/parent change=.) to record a before/after pair:
# the checkouts run alternately, one seed at a time, first in list
# order and then reversed, so both see the same machine and neither
# always runs first. Raw outputs stay in .bench_build/record.
# Compare with: go run ./cmd/benchtraj compare BENCH_<pr>.json
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -lt 1 ]; then
	echo "usage: $0 PR [LABEL=CHECKOUT ...]" >&2
	exit 2
fi
pr=$1
shift
pairs=("$@")
if [ ${#pairs[@]} -eq 0 ]; then
	pairs=("change=.")
fi
raw=$PWD/.bench_build/record
rm -rf "$raw"
mkdir -p "$raw"
n=0
for seed in 1 2 3 4 5; do
	order=("${pairs[@]}")
	if [ $((n % 2)) -eq 1 ]; then
		order=()
		for ((i = ${#pairs[@]} - 1; i >= 0; i--)); do
			order+=("${pairs[i]}")
		done
	fi
	n=$((n + 1))
	for workload in cachehit fibchurn; do
		for pair in "${order[@]}"; do
			label=${pair%%=*}
			dir=${pair#*=}
			out=$raw/$label.$workload.$seed.out
			echo "$label $workload seed $seed" >&2
			# A run whose ledger does not balance exits 1 but still
			# prints its result line; the summary counts it as failed.
			bash "$dir/perfbench/run.sh" --workload "$workload" --seed "$seed" \
				--seconds 20 --trace 0 >"$out" || true
		done
	done
done
go run ./cmd/benchtraj record -pr "$pr" -o "BENCH_$pr.json" "$raw"/*.out
echo "wrote BENCH_$pr.json" >&2
