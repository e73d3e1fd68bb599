#!/bin/sh
# Benchmark driver behind the checked-in BENCH_*.json measurements.
#
#   scripts/bench.sh comm [output.json]   communication: scalability sweep
#                                         under both masking modes, then the
#                                         seeded-vs-per-round comparison
#                                         (default output BENCH_comm.json)
#   scripts/bench.sh hot  [output.json]   hot kernels: tiled-vs-reference
#                                         compute kernels plus packed vs
#                                         unpacked Paillier aggregation
#                                         (default output BENCH_hot.json)
#   scripts/bench.sh elastic [output.json] straggler recovery: round latency
#                                         vs injected delay at M=16,
#                                         demote-and-continue vs
#                                         abort-and-restart
#                                         (default output BENCH_elastic.json)
#   scripts/bench.sh async [output.json]  async rounds: bulk-synchronous vs
#                                         bounded-staleness + minibatch time
#                                         to target accuracy under a flaky
#                                         link (default output
#                                         BENCH_async.json)
#
# Running with no arguments keeps the historical behavior: the comm mode.
# A bare *.json first argument is also accepted as the comm output path.
set -eu

cd "$(dirname "$0")/.."

mode="${1:-comm}"
case "$mode" in
*.json)
	# Backward compatibility: scripts/bench.sh out.json == comm mode.
	set -- comm "$mode"
	mode=comm
	;;
esac

case "$mode" in
comm)
	out="${2:-BENCH_comm.json}"
	echo "==> scalability bench, both mask modes (1x)"
	go test -run '^$' -bench Scalability -benchtime 1x .

	echo "==> measuring seeded vs per-round communication -> $out"
	go run ./cmd/ppml-figures -panel comm -learners 16 -comm-json "$out"
	;;
hot)
	out="${2:-BENCH_hot.json}"
	echo "==> hot-kernel pairs (go test cross-check, 1x)"
	go test -run '^$' -bench 'MatMul500|MatMulT2000x50' -benchtime 1x ./internal/linalg/
	go test -run '^$' -bench 'GramRBF2000x50' -benchtime 1x ./internal/kernel/
	go test -run '^$' -bench 'PaillierVector' -benchtime 1x ./internal/mapreduce/

	echo "==> measuring tiled vs reference kernels + Paillier packing -> $out"
	go run ./cmd/ppml-figures -panel hot -hot-json "$out"
	;;
elastic)
	out="${2:-BENCH_elastic.json}"
	echo "==> elastic rounds regression (race, cross-check)"
	go test -race -run 'TestElastic' ./internal/mapreduce/

	echo "==> measuring demote-and-continue vs abort-and-restart -> $out"
	go run ./cmd/ppml-figures -panel elastic -learners 16 -elastic-json "$out"
	;;
async)
	out="${2:-BENCH_async.json}"
	echo "==> staleness chaos regression (race, cross-check)"
	go test -race -run 'TestAsyncStaleness' ./internal/consensus/

	echo "==> measuring bulk-synchronous vs bounded-staleness rounds -> $out"
	go run ./cmd/ppml-figures -panel async -async-json "$out"
	;;
*)
	echo "usage: scripts/bench.sh [comm|hot|elastic|async] [output.json]" >&2
	exit 2
	;;
esac

echo "ok: wrote $out"
