#!/usr/bin/env bash
# Build the `delphic` binary and the load generator from this checkout, then
# run one benchmark pass:
#   bash perfbench/run.sh --workload bulk_ingest --seed 1 --seconds 20 --trace 0
# Build output goes to stderr so the last stdout line stays the JSON result.
set -eu
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . ./bin/main.exe ./perfbench/perfbench.exe 1>&2
exec ./_build/default/perfbench/perfbench.exe "$@"
