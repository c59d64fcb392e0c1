#!/usr/bin/env bash
# Builds the core benchmark from source in this checkout, then measures
# one workload:
#
#   bash corebench/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the JSON
# result. Nothing is read or written outside the checkout: the build
# stays in _build and dune's shared cache is off.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./corebench/main.exe >&2
exec ./_build/default/corebench/main.exe "$@"
