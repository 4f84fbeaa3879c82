#!/usr/bin/env bash
# Code size per crate: non-test, non-comment, non-blank Rust lines.
#
#   ci/loc.sh [REV]
#
# Counts every .rs file of each crate (crates/*, vendor/*, benchmark, the
# facade's src/) outside its tests/ directory, stopping each file at its
# top-level `#[cfg(test)]` module and skipping blank lines and lines
# that are only a `//` comment. With REV, counts that revision too (from
# `git archive`, nothing is checked out) and prints the difference.
set -euo pipefail
root=$(git rev-parse --show-toplevel)

count() { # tree -> "crate lines" per crate
  local tree=$1 dir
  for dir in "$tree"/crates/* "$tree"/vendor/* "$tree"/benchmark "$tree"/src; do
    [[ -d $dir ]] || continue
    find "$dir" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
      xargs -0 -r awk -v crate="${dir#"$tree"/}" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print crate, n + 0 }'
  done
}

if [[ $# -eq 0 ]]; then
  count "$root" | awk '{ printf "%-20s %7d\n", $1, $2; t += $2 } END { printf "%-20s %7d\n", "total", t }'
  exit
fi

then_tree=$(mktemp -d)
trap 'rm -rf "$then_tree"' EXIT
git -C "$root" archive "$1" | tar -x -C "$then_tree"
{ count "$then_tree" | sed 's/^/then /'; count "$root" | sed 's/^/now /'; } |
  awk '{ side[$1, $2] = $3; crates[$2] = 1 }
    END { for (c in crates) print c, side["then", c] + 0, side["now", c] + 0 }' |
  sort | awk -v rev="${1:0:9}" '
    BEGIN { printf "%-20s %9s %9s %7s\n", "crate", rev, "now", "diff" }
    { printf "%-20s %9d %9d %+7d\n", $1, $2, $3, $3 - $2; a += $2; b += $3 }
    END { printf "%-20s %9d %9d %+7d\n", "total", a, b, b - a }'
