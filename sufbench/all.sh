#!/usr/bin/env bash
# Runs every workload once and prints one row per workload with every
# end-to-end metric, its unit, and the failed ratio:
#   bash sufbench/all.sh [SEED] [SECONDS]
set -euo pipefail
seed=${1:-1}
seconds=${2:-30}
for w in eij-translate sd-search served-repeat; do
  bash sufbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
    --trace 0 | grep '^row '
done
