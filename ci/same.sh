#!/usr/bin/env bash
# Bit-identity of the simulated results: the working tree against PARENT_REV.
#
#   ci/same.sh PARENT_REV
#
# Exports PARENT_REV with `git archive` (no worktree is registered), builds
# the bench binaries of both sides offline into two target dirs, and runs
# on each side, from its own tree and into its own results dir
# (FCC_RESULTS_DIR):
#
#   all_figures, ablations, skew, tables_setup,
#   check --exhaustive-pes 2,3,4
#
# It diffs each binary's stdout (without the `[written <path>]` lines,
# whose paths differ) and the two results dirs, prints every difference,
# and exits 1 if there is any. A change that claims only simulator speed
# must come out clean: every figure, ablation, skew table and schedule
# verdict the same bytes.
#
# Everything is written under ${CARGO_TARGET_DIR:-.bench_build}/same.
set -euo pipefail
[[ $# -eq 1 ]] || { sed -n '2,4p' "$0" >&2; exit 2; }
parent_rev=$1
root=$(git rev-parse --show-toplevel)
cd "$root"
work=${CARGO_TARGET_DIR:-$root/.bench_build}/same

rm -rf "$work/parent" "$work/out"
mkdir -p "$work/parent" "$work/out"
git archive "$parent_rev" | tar -x -C "$work/parent"

runs=(
  "all_figures"
  "ablations"
  "skew"
  "tables_setup"
  "check --exhaustive-pes 2,3,4"
)

side() { # name tree
  local name=$1 tree=$2 target=$work/target-$1 run bin
  CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$tree/Cargo.toml" -p fcc-bench --bins
  mkdir -p "$work/out/$name/results"
  for run in "${runs[@]}"; do
    bin=${run%% *}
    echo "$name: $run" >&2
    # shellcheck disable=SC2086 # the run's arguments split on purpose
    (cd "$tree" && FCC_RESULTS_DIR=$work/out/$name/results "$target/release/"$run) |
      grep -v '^\[written ' >"$work/out/$name/$bin.stdout"
  done
}
side parent "$work/parent"
side change "$root"

status=0
for run in "${runs[@]}"; do
  bin=${run%% *}
  if ! diff -u "$work/out/parent/$bin.stdout" "$work/out/change/$bin.stdout"; then
    echo "same: $bin stdout differs" >&2
    status=1
  fi
done
if ! diff -ru "$work/out/parent/results" "$work/out/change/results"; then
  echo "same: results differ" >&2
  status=1
fi
((status == 0)) && echo "same: stdout of ${#runs[@]} runs and results/ identical to $parent_rev"
exit "$status"
