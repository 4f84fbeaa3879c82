#!/usr/bin/env bash
# Runs every workload RUNS times, one process per run, each with another
# seed, and writes one line per run to OUT — the input of `--agree`.
#
#   benchmark/run_set.sh OUT [RUNS=10] [FIRST_SEED=1] [TRACE=0]
#
# Run from the repository root. FCC_BENCHMARK_BIN names a prebuilt binary
# to use instead of `cargo run` (e.g. a copy built from the parent commit).
set -euo pipefail
out=$1
runs=${2:-10}
first_seed=${3:-1}
trace=${4:-0}
here=$(cd "$(dirname "$0")" && pwd)
seconds=$(grep -o '"run_seconds": *[0-9]*' "$here/../BENCHMARK.json" | grep -o '[0-9]*$')
if [[ -n ${FCC_BENCHMARK_BIN:-} ]]; then
  bin=("$FCC_BENCHMARK_BIN")
else
  bin=(cargo run --release --quiet --manifest-path "$here/Cargo.toml" --)
fi
: >"$out"
for workload in $("${bin[@]}" --list); do
  for ((i = 0; i < runs; i++)); do
    seed=$((first_seed + i))
    record=$("${bin[@]}" --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" | tail -n 1)
    printf '{"workload": "%s", "seed": %d, "record": %s}\n' "$workload" "$seed" "$record" >>"$out"
    echo "$workload seed $seed done" >&2
  done
done
