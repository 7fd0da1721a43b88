#!/usr/bin/env bash
# Build the benchmark from source and run it; all arguments are passed
# through (see README.md).  Run from the root of a checkout:
#   bash perfbench/run.sh --workload pascal-real --seed 1 --seconds 10 --trace 0
set -euo pipefail
# dune's progress and errors go to stderr: stdout carries the report,
# with the JSON result as its last line
dune build --root . ./perfbench/bench.exe 1>&2
commit=unknown
if [ -e .git ]; then commit=$(git rev-parse HEAD 2>/dev/null || echo unknown); fi
PERFBENCH_COMMIT=$commit exec ./_build/default/perfbench/bench.exe "$@"
