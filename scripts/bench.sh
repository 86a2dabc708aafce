#!/bin/sh
# bench.sh — capture the repository's benchmark baseline into BENCH_<date>.json.
#
# Runs the cycle-kernel microbenchmark plus the class-representative figure
# benchmarks (one workload per LL/LH/HH traffic class, see bench_test.go)
# with -benchmem, and appends a labelled capture to a JSON file via
# cmd/benchjson. Run it before and after a performance change with different
# labels to record the before/after pair in one file:
#
#	scripts/bench.sh before-refactor
#	... make changes ...
#	scripts/bench.sh after-refactor
#
# A change confined to the NoC can capture just the rows it moves — the two
# kernel microbenchmarks, network construction and the open-loop Fig 21
# point — by passing `noc` as the third argument (a minute instead of ten):
#
#	scripts/bench.sh before-mask-router BENCH_2026-09-28.json noc
#
# A change confined to the SIMT core model and the memory side behind it
# captures the per-core-tick microbenchmark plus the two closed-loop rows it
# moves by passing `gpu`:
#
#	scripts/bench.sh before-mask-core BENCH_2026-09-28.json gpu
#
# A change confined to the memory side (L1/L2 tag arrays, MSHRs, the MC
# node and its DRAM channel) captures the per-MC-cycle and per-access
# microbenchmarks plus the per-core-tick rows that drive the L1 and MSHR by
# passing `mem`:
#
#	scripts/bench.sh before-bank-fifos BENCH_2026-10-15.json mem
#
# Every capture records the host (CPU model, goos/goarch), GOMAXPROCS and
# NumCPU next to its rows; a before/after pair must come from one host.
# Compare a pair per family (geomean ns/op and allocs/op; exits 1 past the
# noise threshold):
#
#	go run ./cmd/benchjson -compare BENCH_x.json#before-y BENCH_x.json#after-y
#
# Usage: scripts/bench.sh [label] [outfile] [all|noc|gpu|mem]
set -eu
cd "$(dirname "$0")/.."

LABEL="${1:-capture}"
OUT="${2:-BENCH_$(date +%F).json}"
SUITE="${3:-all}"

case "$SUITE" in
all | noc | gpu | mem) ;;
*)
	echo "bench.sh: unknown suite '$SUITE' (want all, noc, gpu or mem)" >&2
	exit 2
	;;
esac

{
	# Cycle-kernel microbenchmarks: fixed iteration count so allocs/op and
	# hops/cycle are comparable across captures.
	[ "$SUITE" = gpu ] || [ "$SUITE" = mem ] ||
		go test -run '^$' -bench 'BenchmarkCycleKernel|BenchmarkBackendKernel' -benchmem -benchtime 2000x ./internal/noc/
	if [ "$SUITE" = gpu ]; then
		# One core clock cycle on compute-bound and memory-bound (blocked
		# L1 port) kernels; fixed iteration count so allocs/op is
		# comparable across captures.
		go test -run '^$' -bench 'BenchmarkCoreTick' -benchmem -benchtime 2000000x ./internal/gpu/
		# The closed loops those ticks add up to: the dormancy-elision
		# pair (elided vs every component ticked on every edge) and the
		# lane-batched memory-bound manycore run.
		go test -run '^$' -bench 'BenchmarkIdleSkipClosedLoop' -benchmem -benchtime 1x .
		go test -run '^$' -bench 'BenchmarkLaneThroughput' -benchmem -benchtime 5x .
	elif [ "$SUITE" = mem ]; then
		# One MC node cycle under a steady read/write-back stream, one L1
		# and one L2 line access, and the core ticks that drive the L1 and
		# its MSHR table; fixed iteration counts so allocs/op is comparable.
		go test -run '^$' -bench 'BenchmarkMCNode' -benchmem -benchtime 2000000x ./internal/mem/
		go test -run '^$' -bench 'BenchmarkCacheAccess' -benchmem -benchtime 5000000x ./internal/cache/
		go test -run '^$' -bench 'BenchmarkCoreTick' -benchmem -benchtime 2000000x ./internal/gpu/
	elif [ "$SUITE" = noc ]; then
		# Building one network per backend family: what every run pays
		# before its first cycle.
		go test -run '^$' -bench 'BenchmarkNewMesh' -benchmem -benchtime 2000x ./internal/noc/
		# The open-loop harness on the real mesh: driver + kernel, the same
		# path the repository benchmark's open-loadlat workload takes.
		go test -run '^$' -bench 'BenchmarkFig21OpenLoop' -benchmem -benchtime 5x .
	else
		# Sweep-planner microbenchmark: a warm re-plan of an explorer-shaped
		# sweep (alloc-gated at 0 allocs/op in CI).
		go test -run '^$' -bench 'BenchmarkSweepPlanner' -benchmem -benchtime 200x ./internal/runner/
		# Class-representative figure benchmarks (hm_speedup metrics et al)
		# and the idle-skip pairs (closed-loop dormancy elision, open-loop
		# drain skip), whose skip rows get a derived speedup_vs_noskip
		# metric from cmd/benchjson.
		go test -run '^$' -bench 'Fig|Table|Headline|IdleSkip' -benchmem -benchtime 1x .
		# Lane-batched end-to-end throughput (memory-bound manycore closed
		# loop at 1 and 4 seed lanes). Longer benchtime: the per-seed
		# speedup_vs_l1 ratio is the headline number and single-iteration
		# noise would swamp it.
		go test -run '^$' -bench 'BenchmarkLaneThroughput' -benchmem -benchtime 5x .
	fi
} 2>&1 | go run ./cmd/benchjson -label "$LABEL" -out "$OUT"
