#!/usr/bin/env bash
# Build the benchmark from this checkout, then run it:
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to stderr so the last
# line of standard output stays the benchmark's JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -f lib/xcluster.ml ]; then
  echo "perfbench: run from the root of an xcluster checkout (no dune-project or lib/ here)" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout, so it stays off
DUNE_CACHE=disabled dune build --root . ./perfbench/main.exe ./bin/xcluster.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
