#!/usr/bin/env bash
# Paired A/B on the yardstick: the working tree against PARENT_REV.
#
#   ci/ab.sh [--trace] PARENT_REV [PAIRS=10] [WORKLOAD...]
#
# Exports PARENT_REV with `git archive` (no worktree is registered), puts
# this tree's benchmark/ into the export so both sides run byte-identical
# benchmark code, builds both offline into two target dirs, then runs
# PAIRS alternating parent/change pairs per workload (same seed within a
# pair; odd pairs run the parent first, even pairs the change), one
# process per run, `run_seconds` from BENCHMARK.json. Alternation cancels
# the box's regime drift, so the resolution is the within-pair spread.
#
# Prints, per workload x end-to-end metric: both medians, both quartile
# pairs, the median of the paired log-ratios ln(change/parent), and the
# pairs the change won (ties count for neither). Raw records land beside
# the builds as parent.jsonl / change.jsonl, in `run_set.sh` format, so
# `--agree parent.jsonl change.jsonl` reads them too.
#
# With --trace, a final step runs one `--trace 1` pass per side for each
# workload and prints, side by side, the bit-identity witnesses
# (`core.sim.digest`, `core.sim.paper_gap_pp`) and the per-layer spans
# that attribute a simulator change (`core.sim.*_ms_per_point`,
# `astra.pass_ms`, `gpu.exec.tasks_per_s`, and the substrate probes
# `sim.ps.ns_per_job` and `sim.engine.events_per_s`). With PAIRS=0 the
# summary is empty and this step is all that runs.
#
# Everything is written under ${CARGO_TARGET_DIR:-.bench_build}/ab.
set -euo pipefail
trace=0
[[ ${1:-} == --trace ]] && { trace=1; shift; }
[[ $# -ge 1 ]] || { sed -n '2,5p' "$0" >&2; exit 2; }
parent_rev=$1
pairs=${2:-10}
shift $(($# < 2 ? $# : 2))
root=$(git rev-parse --show-toplevel)
cd "$root"
work=${CARGO_TARGET_DIR:-$root/.bench_build}/ab
seconds=$(grep -o '"run_seconds": *[0-9]*' BENCHMARK.json | grep -o '[0-9]*$')

rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"
if ! diff -rq -x target benchmark "$work/parent/benchmark" >/dev/null; then
  echo "note: benchmark/ differs from $parent_rev; both sides run this tree's copy" >&2
fi
rm -rf "$work/parent/benchmark"
mkdir "$work/parent/benchmark"
tar -c --exclude=./target -C benchmark . | tar -x -C "$work/parent/benchmark"

build() { # tree target-dir
  CARGO_TARGET_DIR=$2 cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
}
build "$work/parent" "$work/target-parent"
build "$root" "$work/target-change"
parent_bin=$work/target-parent/release/fcc-benchmark
change_bin=$work/target-change/release/fcc-benchmark

workloads=("$@")
[[ ${#workloads[@]} -gt 0 ]] || mapfile -t workloads < <("$change_bin" --list)

run() { # side workload seed
  local bin=$parent_bin
  [[ $1 == change ]] && bin=$change_bin
  local record
  record=$("$bin" --workload "$2" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
  printf '{"workload": "%s", "seed": %d, "record": %s}\n' "$2" "$3" "$record" >>"$work/$1.jsonl"
}
: >"$work/parent.jsonl"
: >"$work/change.jsonl"
for workload in "${workloads[@]}"; do
  for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then order=(parent change); else order=(change parent); fi
    for side in "${order[@]}"; do run "$side" "$workload" "$i"; done
    echo "$workload pair $i/$pairs done" >&2
  done
done

# name:better for each end-to-end metric.
metrics=$(sed -n '/"end_to_end"/,/\]/p' BENCHMARK.json |
  sed -n 's/.*"name": "\([^"]*\)".*"better": "\([^"]*\)".*/\1:\2/p')

echo "parent $parent_rev vs working tree; $pairs pairs, ${seconds}s runs"
# shellcheck disable=SC2086
awk -v metrics="$(echo $metrics)" '
  function value(line, name,    rest) {
    rest = substr(line, index(line, "\"" name "\": {\"value\": "))
    sub(/^[^{]*\{"value": /, "", rest); sub(/[,}].*/, "", rest)
    return rest + 0
  }
  function field(line, name,    rest) {
    rest = substr(line, index(line, "\"" name "\": ") + length(name) + 4)
    sub(/[,}].*/, "", rest); gsub(/"/, "", rest)
    return rest
  }
  # Sorts v[1..n] in place (n is a handful).
  function sort(v, n,    i, j, t) {
    for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t }
  }
  # Linear-interpolated quantile of sorted v[1..n].
  function quantile(v, n, q,    h, lo) {
    h = 1 + (n - 1) * q; lo = int(h)
    return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
  }
  {
    side = FILENAME ~ /parent\.jsonl$/ ? "p" : "c"
    w = field($0, "workload"); seed = field($0, "seed") + 0
    if (!(w in seen)) { seen[w] = 1; order[++nw] = w }
    if (seed > seeds[w]) seeds[w] = seed
    failed[side, w] += field($0, "failed"); attempted[side, w] += field($0, "attempted")
    nm = split(metrics, ms, " ")
    for (m = 1; m <= nm; m++) { split(ms[m], nb, ":"); val[side, w, nb[1], seed] = value($0, nb[1]) }
  }
  END {
    printf "%-18s %-12s %12s %25s %12s %25s %9s %6s\n", "workload", "metric", "parent p50", "parent q1..q3", "change p50", "change q1..q3", "ln(c/p)", "wins"
    for (k = 1; k <= nw; k++) {
      w = order[k]; n = seeds[w]
      for (m = 1; m <= nm; m++) {
        split(ms[m], nb, ":"); name = nb[1]; wins = 0
        for (i = 1; i <= n; i++) {
          p[i] = val["p", w, name, i]; c[i] = val["c", w, name, i]; r[i] = log(c[i] / p[i])
          if (nb[2] == "higher" ? c[i] > p[i] : c[i] < p[i]) wins++
        }
        sort(p, n); sort(c, n); sort(r, n)
        printf "%-18s %-12s %12.6g %12.6g..%-11.6g %12.6g %12.6g..%-11.6g %+9.4f %3d/%-2d\n", w, name, \
          quantile(p, n, .5), quantile(p, n, .25), quantile(p, n, .75), \
          quantile(c, n, .5), quantile(c, n, .25), quantile(c, n, .75), quantile(r, n, .5), wins, n
      }
      printf "%-18s failed/attempted: parent %d/%d, change %d/%d\n", w, failed["p", w], attempted["p", w], failed["c", w], attempted["c", w]
    }
  }
' "$work/parent.jsonl" "$work/change.jsonl"

traced() { # the per-layer lines --trace prints for the simulators
  "$1" --workload "$2" --seed 1 --seconds "$seconds" --trace 1 |
    grep -E '^(core\.sim\.(digest|paper_gap_pp|[a-z_]+_ms_per_point)|astra\.pass_ms|gpu\.exec\.tasks_per_s|sim\.ps\.ns_per_job|sim\.engine\.events_per_s) '
}
if ((trace)); then
  for workload in "${workloads[@]}"; do
    printf '%-18s %-34s %18s %18s\n' workload "traced metric" parent change
    paste <(traced "$parent_bin" "$workload") <(traced "$change_bin" "$workload") |
      awk -v w="$workload" '{ printf "%-18s %-34s %18s %18s %s\n", w, $1, $2, $5, $3 }'
  done
fi
