#!/usr/bin/env bash
# Builds sufdec and the benchmark from the source tree in the current
# directory, then runs one benchmark workload:
#   bash sufbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
if [[ ! -f dune-project || ! -f bin/sufdec.ml || ! -d lib ]]; then
  echo "sufbench: run from the root of a sepsat source tree" >&2
  exit 2
fi
# Keep every build product inside the tree.
export DUNE_CACHE=disabled
dune build --root . --build-dir .bench_build \
  ./bin/sufdec.exe ./sufbench/sufbench.exe 1>&2
exec .bench_build/default/sufbench/sufbench.exe \
  --sufdec .bench_build/default/bin/sufdec.exe "$@"
