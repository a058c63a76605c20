#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json n times, each time with another seed,
# and records the results in <file>, one JSON object per line: the input of
# `run.sh -compare a.jsonl b.jsonl`, which applies the bounds the way the
# driver does. Runs are interleaved round-robin across the workloads, so a
# noisy period on a shared host hits all of them alike.
#
#   benchmarks/repeat.sh a.jsonl [n=10] [first-seed=1] [trace=0]
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
out=${1:?usage: repeat.sh file [runs] [first-seed] [trace]}
runs=${2:-10}
first=${3:-1}
trace=${4:-0}
read -r seconds workloads < <(python3 -c '
import json, sys
b = json.load(open(sys.argv[1]))
print(b["run_seconds"], " ".join(w["name"] for w in b["workloads"]))' "$here/../BENCHMARK.json")
for ((i = 0; i < runs; i++)); do
	for w in $workloads; do
		"$here/run.sh" --workload "$w" --seed $((first + i)) --seconds "$seconds" --trace "$trace" \
			-record "$out" | sed -n '1p;$p' | cut -c1-160
	done
done
