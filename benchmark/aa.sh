#!/bin/sh
# A/A check: runs the untraced set twice on one build and fails if any
# (metric, workload) pair differs by more than the metric's bound.
#   benchmark/aa.sh --seed 7
set -e
exec "$(dirname "$0")/run.sh" --aa "$@"
