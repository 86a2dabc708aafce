#!/bin/sh
# experiments.sh — regenerate experiments_output.txt (the full evaluation
# sweep's raw tables, referenced by EXPERIMENTS.md) on demand instead of
# keeping a stale copy in the repository.
#
# Usage: scripts/experiments.sh [outfile] [extra cmd/experiments flags...]
#
# The full-scale sweep takes a while; pass e.g. "-scale 0.2" for a quick
# approximation. Runs spread over GOMAXPROCS workers; "-jobs N" bounds them.
set -eu
cd "$(dirname "$0")/.."

OUT="${1:-experiments_output.txt}"
[ $# -gt 0 ] && shift

go run ./cmd/experiments "$@" all | tee "$OUT"
echo "wrote $OUT" >&2
