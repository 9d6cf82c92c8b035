#!/usr/bin/env bash
# Builds the benchmark and the `waco` binary it starts, then runs one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Run from the root of the repository.  Build output goes to stderr, so
# standard output carries only the benchmark's report.
set -euo pipefail
# Keep the build inside the checkout: no shared dune cache.
export DUNE_CACHE=disabled
dune build --root . ./perfbench/main.exe ./bin/waco_cli.exe 1>&2
PERFBENCH_COMMIT=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export PERFBENCH_COMMIT
exec ./_build/default/perfbench/main.exe --waco ./_build/default/bin/waco_cli.exe "$@"
