#!/usr/bin/env bash
# List every value that an interface under lib/ exports, and every
# optional argument such a value takes, that no other tracked .ml file
# names. Exit 1 on any hit outside the allowlist below, 0 otherwise.
#
#   scripts/unused_exports.sh          # hits only
#   scripts/unused_exports.sh --count  # also print the val / ?arg totals
#
# A value `v` of module `M` (file m.mli, nested module `N` if any) has a
# caller when some tracked .ml file other than m.ml, comments stripped,
#   - names it qualified: `M.v`, `M.N.v`, or `X.v` after `module X = M`;
#   - or opens M (`open M`, `open! M`, `let open M in`, `include M`,
#     `M.(...)`) and names `v` (or `N.v`) unqualified.
# An optional argument `?a` of `M.v` has a caller when a file outside
# m.ml that names M as above passes `~a` or `?a`. Both checks are
# heuristics that err towards "has a caller": a same-named value of
# another opened module, or a same-named label, hides a hit.
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

# Genuine false positives, one per line: `Module.value` or
# `Module.value?arg`, a tab or spaces, then the reason.
allow=$(
  cat <<'EOF'
EOF
)

count=0
[ "${1:-}" = "--count" ] && count=1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Strip OCaml comments (nested) from every tracked .ml file, keeping
# string literals, so that a name in a comment is not a caller.
strip='
{
  out = ""; n = length($0); i = 1
  while (i <= n) {
    c = substr($0, i, 1); c2 = substr($0, i, 2)
    if (instr) {
      if (depth == 0) out = out c
      if (c == "\\") { if (depth == 0) out = out substr($0, i + 1, 1); i += 2; continue }
      if (c == "\"") instr = 0
      i++; continue
    }
    if (c2 == "(*") { depth++; i += 2; continue }
    if (depth > 0 && c2 == "*)") { depth--; i += 2; continue }
    if (substr($0, i, 3) == "'\''\"'\''") { if (depth == 0) out = out "'\''\"'\''"; i += 3; continue }
    if (c == "\"") instr = 1
    if (depth == 0) out = out c
    i++
  }
  print out
}'
git ls-files '*.ml' >"$tmp/files"
while read -r f; do
  mkdir -p "$tmp/src/$(dirname "$f")"
  awk "$strip" "$f" >"$tmp/src/$f"
done <"$tmp/files"

# One line per exported value: file, module, nested module (or -),
# value, then its optional arguments separated by spaces.
for mli in $(git ls-files 'lib/*.mli'); do
  base=$(basename "$mli" .mli)
  m="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  awk -v file="$mli" -v m="$m" '
    function flush() { if (v != "") print file "\t" m "\t" nest "\t" v "\t" opts; v = "" }
    BEGIN { nest = "-" }
    { line = $0; gsub(/\(\*.*\*\)/, "", line) }
    line ~ /^[ \t]*module [A-Z][A-Za-z0-9_]* *: *sig/ {
      flush(); split(line, w, /[ \t:]+/); for (k in w) if (w[k] ~ /^[A-Z]/) { nest = w[k]; break }
      next
    }
    line ~ /^[ \t]*end[ \t]*$/ { flush(); nest = "-"; next }
    line ~ /^[ \t]*val / {
      flush(); s = line; sub(/^[ \t]*val +/, "", s); sub(/[ \t:].*/, "", s); v = s; opts = ""
      line = substr(line, index(line, ":"))
    }
    line ~ /^[ \t]*(type|exception|module|include|external) / { flush() }
    line ~ /^[ \t]*\(\*/ { flush() }
    v != "" {
      while (match(line, /\?[a-z_][A-Za-z0-9_'\'']*:/)) {
        opts = opts (opts == "" ? "" : " ") substr(line, RSTART + 1, RLENGTH - 2)
        line = substr(line, RSTART + RLENGTH)
      }
    }
    END { flush() }
  ' "$mli"
done >"$tmp/vals"

# Files that open each module, and `module X = M` aliases.
others() { grep -v -x -F "$1" "$tmp/files" | sed "s|^|$tmp/src/|"; }
openers() {
  others "$1" | xargs grep -l -E \
    "(open!? +$2\b|let +open +$2 +in|include +$2\b|\b$2\.\()" 2>/dev/null || true
}
aliases() {
  others "$1" | xargs grep -h -o -E "module +[A-Z][A-Za-z0-9_]* *= *$2\b" 2>/dev/null |
    sed -E 's/module +([A-Za-z0-9_]+).*/\1/' | sort -u || true
}

hits=0
nvals=0
nopts=0
declare -A open_cache alias_cache namer_cache
while IFS=$'\t' read -r mli m nest v opts; do
  nvals=$((nvals + 1))
  ml="${mli%.mli}.ml"
  if [ -z "${open_cache[$m]+x}" ]; then
    open_cache[$m]=$(openers "$ml" "$m" | tr '\n' ' ')
    alias_cache[$m]=$(aliases "$ml" "$m" | tr '\n' '|')
    namer_cache[$m]=$(others "$ml" | xargs grep -l -E "\b$m\.|open!? +$m\b|include +$m\b" 2>/dev/null | tr '\n' ' ' || true)
  fi
  quals="$m"
  [ -n "${alias_cache[$m]}" ] && quals="$m|${alias_cache[$m]%|}"
  vre=$(printf '%s' "$v" | sed "s/'/\\\\'/g")
  [ "$nest" != "-" ] && vre="$nest\.$vre"
  used=0
  if others "$ml" | xargs grep -q -E "\b($quals)\.$vre\b" 2>/dev/null; then used=1
  elif [ -n "${open_cache[$m]}" ] &&
    grep -q -E "(^|[^.A-Za-z0-9_'])$vre\b" ${open_cache[$m]} 2>/dev/null; then used=1
  fi
  name="$m.$v"
  [ "$nest" != "-" ] && name="$m.$nest.$v"
  if [ "$used" = 0 ] && ! grep -q -x -E "${name//./\\.}[[:space:]].*" <<<"$allow"; then
    echo "$mli: $name"
    hits=$((hits + 1))
  fi
  for a in $opts; do
    nopts=$((nopts + 1))
    passed=0
    if [ -n "${namer_cache[$m]}" ] &&
      grep -q -E "[~?]$a\b" ${namer_cache[$m]} 2>/dev/null; then passed=1; fi
    if [ "$passed" = 0 ] && ! grep -q -x -E "${name//./\\.}\?$a[[:space:]].*" <<<"$allow"; then
      echo "$mli: $name ?$a"
      hits=$((hits + 1))
    fi
  done
done <"$tmp/vals"

[ "$count" = 1 ] && echo "exported vals: $nvals, optional arguments: $nopts"
if [ "$hits" -gt 0 ]; then
  echo "unused_exports: $hits hit(s); delete them, or allowlist a genuine false positive" >&2
  exit 1
fi
