#!/usr/bin/env bash
# Build the solver CLI and the benchmark from source, then run the
# benchmark with the given arguments.  Run from the repository root:
#
#   bash perfbench/run.sh --workload alg1-lec --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . ./bin/eda4sat_cli.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe \
  --server ./_build/default/bin/eda4sat_cli.exe "$@"
