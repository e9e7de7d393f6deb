#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments, from the root of a memlayout checkout:
#
#   bash bench/e2e/run.sh --workload scale-cdl --seed 3 --seconds 20 --trace 0
#
# Build output goes to stderr, so the last line of stdout is the
# benchmark's JSON result.  Fails without a result when the checkout is
# incomplete (no dune-project at the root).
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ]; then
  echo "run.sh: $(pwd) is not a memlayout checkout (no dune-project)" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . ./bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
