#!/usr/bin/env bash
# run.sh — build the benchmark from source and run it.
#
# BENCHMARK.json's command is `bash bench/run.sh`; the driver appends
# `--workload <name> --seed <n> --seconds <s> --trace <0|1>`. Everything
# the build and the run write (Go build cache, the binary, journals, stores,
# profiles, span files) stays under .bench_build/ in the checkout, which
# .gitignore names. The binary replaces this shell, so no child is left.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off

(cd "$here" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
