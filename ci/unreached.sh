#!/usr/bin/env bash
# Public names that nothing outside their own file reaches.
#
#   ci/unreached.sh
#
# Definitions: every unrestricted `pub fn|const|static|struct|enum|trait|
# type` item in `crates/*/src` (except crates/bench) and the facade's
# `src/`, read as non-test code: `tests/` directories are skipped and each
# file stops at its top-level `#[cfg(test)]`, as in ci/loc.sh.
#
# Reached: the name appears as a whole word in the code of some other .rs
# file under crates/, src/, examples/, tests/ or benchmark/ (test files
# count). Neither a re-export nor a comment is a caller: `pub use` items
# and `//`, `///` and `//!` comments are dropped before the words are
# read, except the lines inside a doc comment's ``` fence, which are
# compiled as doctests and count. A type is also reached, in its own
# file, when it appears in the signature of a reached `pub fn` or as the
# type of a `pub` field of a reached struct, repeated until nothing more
# is reached.
#
# Prints `path:line name` for every unreached name in a file that
# ci/unreached.allow does not list, and every allow-list entry that
# matches nothing; exits 1 if it printed anything. An allow-list line is
# `path reason`: it covers every name in that file, and the reason is
# required.
#
# Limits: this matches words, not paths or types. A common name (`new`,
# `get`) or a name that another file also defines or uses counts as
# reached, so for functions, constants and statics the report is a lower
# bound on the unreached surface. Comments are found by a line scan that
# knows string and char literals on one line but not strings that span
# lines or `/* */` blocks. Type reach within a file covers `pub fn`
# signatures and the braced `pub` fields of structs: a type that its own
# file uses only in an enum payload, a tuple-struct field or a trait
# method's signature is reported although a reached item exposes it.
# Such a report needs an allow-list entry, not a deletion. Otherwise an
# unreached name is fixed by deleting it, or by making it private when
# its own file uses it.
set -euo pipefail
cd "$(dirname "$0")/.."

lists=$(mktemp -d)
trap 'rm -rf "$lists"' EXIT
find crates src examples tests benchmark -name '*.rs' -not -path '*/target/*' |
  sort >"$lists/uses"
find crates/*/src src -name '*.rs' -not -path 'crates/bench/*' \
  -not -path '*/tests/*' -not -path '*/target/*' | sort >"$lists/defs"

awk -v uses="$lists/uses" -v defs="$lists/defs" -v allowfile=ci/unreached.allow '
function words(s) { gsub(/[^A-Za-z0-9_]+/, " ", s); return " " s " " }
# The code of a line: everything before a `//` that no string or char
# literal on the line encloses.
function code(s,   i, n, c, q, j) {
  n = length(s); q = 0
  for (i = 1; i <= n; i++) {
    c = substr(s, i, 1)
    if (q) {
      if (c == "\\") i++
      else if (c == "\"") q = 0
    } else if (c == "\"") q = 1
    else if (c == "\047") {
      if (substr(s, i + 1, 1) == "\\") {
        j = index(substr(s, i + 3), "\047"); if (j) i += j + 2
      } else if (substr(s, i + 2, 1) == "\047") i += 2
    } else if (c == "/" && substr(s, i + 1, 1) == "/") return substr(s, 1, i - 1)
  }
  return s
}
BEGIN {
  bad = 0
  while ((getline line < allowfile) > 0) {
    if (line ~ /^[ \t]*(#|$)/) continue
    n = split(line, f, /[ \t]+/)
    if (n < 2) { print allowfile ": entry without a reason: " line; bad = 1; continue }
    allow[f[1]] = 1; order[++nallow] = f[1]
  }

  # A word is reached from outside a file once the code of two files
  # holds it.
  while ((getline file < uses) > 0) {
    fence = 0; reexport = 0
    while ((getline line < file) > 0) {
      if (line ~ /^[ \t]*\/\/[\/!]/) {
        doc = line; sub(/^[ \t]*\/\/[\/!][ \t]*/, "", doc)
        if (doc ~ /^```/) { fence = !fence; continue }
        if (!fence) continue
        line = doc
      } else if (reexport || line ~ /^[ \t]*pub(\([^)]*\))?[ \t]+use[ \t]/) {
        reexport = line !~ /;/
        continue
      } else line = code(line)
      n = split(words(line), w, " ")
      for (i = 1; i <= n; i++) {
        if (!(w[i] in first)) first[w[i]] = file
        else if (first[w[i]] != file) multi[w[i]] = 1
      }
    }
    close(file)
  }

  kinds = " fn const static struct enum trait type "
  while ((getline file < defs) > 0) {
    nr = 0; insig = 0; body = 0
    while ((getline line < file) > 0) {
      nr++
      if (line ~ /^#\[cfg\(test\)\]/) break
      if (insig) {
        sig[nd] = sig[nd] " " line
        if (line ~ /[{;]/) insig = 0
        continue
      }
      # A struct body, from a header line ending in `{` to the line that
      # closes it: collect the types of its `pub` fields.
      if (body) {
        if (line ~ /^[ \t]*}/) { body = 0; continue }
        if (line ~ /^[ \t]*pub[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*:/) {
          sub(/^[^:]*:/, "", line); fields[nd] = fields[nd] " " line
        }
        continue
      }
      if (line !~ /^[ \t]*pub[ \t]/) continue
      n = split(line, t, /[ \t(<:;{=,]+/)
      i = (t[1] == "") ? 3 : 2
      while (t[i] == "unsafe" || t[i] == "async" || t[i] == "extern" || t[i] ~ /^"/ ||
             (t[i] == "const" && t[i + 1] == "fn")) i++
      if (index(kinds, " " t[i] " ") == 0) continue
      kind = t[i]; name = t[i + 1]
      if (kind == "static" && name == "mut") name = t[i + 2]
      nd++; dfile[nd] = file; dline[nd] = nr; dname[nd] = name; dkind[nd] = kind
      if (kind == "fn") {
        sig[nd] = substr(line, index(line, name) + length(name))
        insig = line !~ /[{;]/
      }
      body = kind == "struct" && line ~ /{[ \t]*$/
    }
    close(file)
  }

  for (d = 1; d <= nd; d++) reached[d] = dname[d] in multi
  do {
    grew = 0
    for (d = 1; d <= nd; d++) {
      if (reached[d] || dkind[d] == "fn" || dkind[d] == "const" || dkind[d] == "static") continue
      for (e = 1; e <= nd; e++)
        if (reached[e] && dfile[e] == dfile[d] &&
            ((dkind[e] == "fn" && index(words(sig[e]), " " dname[d] " ")) ||
             (dkind[e] == "struct" && index(words(fields[e]), " " dname[d] " ")))) {
          reached[d] = 1; grew = 1; break
        }
    }
  } while (grew)

  for (d = 1; d <= nd; d++) {
    if (reached[d]) continue
    if (dfile[d] in allow) { used[dfile[d]] = 1; continue }
    print dfile[d] ":" dline[d] " " dname[d]; bad = 1
  }
  for (a = 1; a <= nallow; a++)
    if (!(order[a] in used)) { print allowfile ": stale entry " order[a]; bad = 1 }
  exit bad
}'
