#!/bin/sh
# Run the three benchmark workloads end to end, one after the other.
# Usage: sh bench/run_all.sh [seed] [trace]   (defaults: seed 0, trace 0)
set -e
for workload in study cohort-analysis large-volume; do
    echo "== $workload"
    python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "${1:-0}" \
        --seconds 10 --trace "${2:-0}"
done
