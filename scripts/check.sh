#!/bin/sh
# Full pre-merge gate: standard vet, the repository's own invariant analyzers
# (cmd/ppml-vet), build, race-enabled tests, a short fuzz pass over the wire
# codecs, and a one-shot benchmark smoke run so bench code can't rot
# unnoticed.
set -eu

cd "$(dirname "$0")/.."

echo "==> context hygiene (no context.Background() mid-stack in internal/)"
# The session refactor threads the caller's context from the public facade
# down to the transport; constructing a fresh root context inside internal/
# (outside tests and analyzer testdata) would silently detach a subtree from
# cancellation again.
if grep -rn "context.Background()" internal/ --include="*.go" \
	| grep -v "_test.go" | grep -v "/testdata/"; then
	echo "error: context.Background() constructed mid-stack in internal/ (thread the caller's ctx instead)" >&2
	exit 1
fi

echo "==> log hygiene (no fmt.Print*/log.* in protocol packages)"
# The telemetrysafe analyzer catches typed payload vectors reaching sinks;
# this cruder gate bans stdout printing and the stdlib logger outright in
# the protocol packages, where any ad-hoc diagnostic is one refactor away
# from leaking a share. Diagnostics there go through internal/telemetry
# (scalar-only by construction). fmt.Fprintf to an explicit non-stdout
# writer (e.g. hashing into a bytes.Buffer) stays legal.
if grep -rnE '\b(fmt\.Print|log\.)' \
	internal/securesum internal/paillier internal/mapreduce \
	internal/transport internal/consensus \
	--include="*.go" | grep -v "_test.go" | grep -v "/testdata/"; then
	echo "error: fmt.Print*/log.* in a protocol package (route diagnostics through internal/telemetry)" >&2
	exit 1
fi

echo "==> one event ring (no span ring, parent-span word or ring knob in non-test Go)"
# The journal is telemetry's only event substrate; a second ring or a trace
# word nothing reads would be one more sink the taint analyzers and DESIGN.md
# §11/§16 have to model.
if grep -rnE 'StartSpan|RecentSpans|PPML_SPAN_RING|ParentSpan' . --include="*.go" \
	| grep -v "_test.go" | grep -v "/testdata/"; then
	echo "error: span-ring surface in non-test Go (emit journal events instead)" >&2
	exit 1
fi

echo "==> one mapper per scheme (no full-batch/minibatch pair in non-test Go)"
# Full batch is the one-chunk schedule of the only mapper each scheme has; a
# second mapper, a chunk-only reducer body or an interface abstracting over
# the pair would put every formula of internal/consensus back in twice.
if grep -rnE 'ChunkMapper|combineChunk|hkLearner|vlBlock|vkBlock' . --include="*.go" \
	| grep -v "_test.go" | grep -v "/testdata/"; then
	echo "error: a second mapper path in non-test Go (a schedule of one chunk is full batch)" >&2
	exit 1
fi

echo "==> one configuration spine (one reducer hook, no knob nothing sets, in non-test Go)"
# A round's cohort is the one weight WeightedReducer.SetRoundWeight announces;
# the second SMO selection and the Paillier width had no caller. A second hook
# or either option coming back would be a decision spelled twice again.
# (bench/ is frozen by BENCHMARK.json and uses none of them.)
if grep -rnE 'SetRoundParticipants|RosterReducer|WithSecondOrder|QPSecondOrder|PaillierPackWidth' . --include="*.go" \
	| grep -v "_test.go" | grep -v "/testdata/" | grep -v "^./bench/"; then
	echo "error: a second cohort hook or a removed knob in non-test Go" >&2
	exit 1
fi

echo "==> one derivation per roster (per-round masks run strict rounds only, in non-test Go)"
# Elastic rounds derive seeded masks, and every re-declared roster of a round
# is strictly smaller than the last, so the roster stamp on a share names its
# derivation. Per-round masks run PerRoundParty.Round over the full cohort,
# the strict round being their only round (newPolicy refuses them with a
# StragglerTimeout). A re-ready phase, a roster-scoped mask exchange or a
# roster-scoped Party share would bring back the wedge recovery of a
# combination nothing runs.
if grep -rnE 'attemptReready|"reready"|maskRosterFilter|RoundRoster|ShareOver\(' . --include="*.go" \
	| grep -v "_test.go" | grep -v "/testdata/"; then
	echo "error: a per-round exchange over a changing roster in non-test Go (elastic rounds derive seeded masks)" >&2
	exit 1
fi

echo "==> a round attempt is its roster (no attempt counter, round timeout or map retries in non-test Go)"
# (round, roster) identifies a share derivation, so an attempt stamp in the
# envelope, the frame or the journal would be a second label nothing decides
# with. A strict round waits until it completes or the job's context ends;
# the straggler deadline is the only protocol clock a caller sets. A
# Contribution is deterministic, so a retry would fail again on the same state.
# (bench/ is frozen by BENCHMARK.json and uses none of them.)
if grep -rnE '\bAttempt\b|MapRetries|RoundTimeout|ppml_map_retries_total' . --include="*.go" \
	| grep -v "_test.go" | grep -v "/testdata/" | grep -v "^./bench/"; then
	echo "error: an attempt counter, RoundTimeout or MapRetries in non-test Go (the roster is the attempt)" >&2
	exit 1
fi

echo "==> the round rides in the envelope (no round word in a payload, no checkpoint, in non-test Go)"
# A broadcast payload is the state alone and a stop carries nothing: a mapper
# takes its round from msg.Round, an envelope field secretflow clears. A
# second carrier of the round (a payload word, a checkpoint the counter
# resumes from) would taint the counter again and bring back the flow-ok
# escapes that excused it; the ppml-vet step below fails on any directive
# left stale. (bench/ is frozen by BENCHMARK.json and uses none of them.)
if grep -rnE "StatePayload|CheckpointPlan|resumes from checkpoint|decoded from the reducer's public state broadcast" . --include="*.go" \
	| grep -v "_test.go" | grep -v "/testdata/" | grep -v "^./bench/"; then
	echo "error: a round carried outside the envelope, or a checkpoint, in non-test Go (msg.Round is the round)" >&2
	exit 1
fi

echo "==> option surface (24 ppml.With* options; the struct field counts are TestOptionSurfacePinned's)"
# Pinned so the next knob has to be argued for: a new option needs two callers
# with different values (ROADMAP item 7; the simplicity-review rule).
if [ "$(cat ppml.go telemetry.go | grep -c '^func With')" -ne 24 ]; then
	echo "error: ppml.With* option count moved from 24 (a new option needs two callers with different values — see ROADMAP)" >&2
	exit 1
fi
go test -run 'TestOptionSurfacePinned' -count=1 .

echo "==> closed compute layer (no env switch, in-tree reference loop, LU or generic Eval path in non-test Go)"
# The four kernels of internal/kernel are the only ones and every matrix
# entry point is the tiled panel path; the pool is sized by GOMAXPROCS and the
# microkernel chosen by CPUID. A switch, a second loop "for kernels outside
# this package" or a reference implementation outside the tests would be a
# path no command, option or bench workload can reach. (bench/ is frozen by
# BENCHMARK.json; a comment there still names the switches.)
if grep -rnE 'PPML_(WORKERS|PAR_THRESHOLD|NOSIMD)|MatMulT?Naive|FactorizeLU|cholColumnPar' . --include="*.go" \
	| grep -v "_test.go" | grep -v "/testdata/" | grep -v "^./bench/"; then
	echo "error: a compute-layer switch, reference loop, LU or per-column Cholesky dispatch in non-test Go" >&2
	exit 1
fi
# The factor is blocked by panels, one pool dispatch per panel; the copying
# FactorizeCholesky is for callers that keep A (bench/replay.go factors one
# matrix repeatedly; the tests). Every other caller factors a scratch matrix,
# so it factors in place and holds one n x n instead of two.
if grep -rnE 'FactorizeCholesky\(' . --include="*.go" \
	| grep -v "_test.go" | grep -v "/testdata/" | grep -v "^./bench/" | grep -v "^./internal/linalg/"; then
	echo "error: a copying FactorizeCholesky outside linalg and bench (factor the scratch matrix with FactorizeCholeskyInPlace)" >&2
	exit 1
fi
# The four Eval methods call no Eval, so any call in the package is a generic
# per-entry loop coming back.
if grep -nE '^[^/]*\.Eval\(' internal/kernel/*.go | grep -v "_test.go"; then
	echo "error: an Eval call in internal/kernel (the tiled path is the only one)" >&2
	exit 1
fi
# A kernel is transformed a panel row at a time (Kernel.rowForm), and the RBF
# row goes through the one exp of the compute layer, linalg.ExpNonPos, whose
# Go twin RBF.Eval calls too. A math.Exp in the package would be a second exp
# with other bits; a per-element func(dot, sqSum) closure would be the 1.4 M
# indirect calls a vk_scores round that the row form removed.
if grep -nE 'math\.Exp\(|func\((dot|d), ?(sqSum|s|_) float64\) float64' internal/kernel/*.go | grep -v "_test.go"; then
	echo "error: math.Exp or a per-element dot-form closure in internal/kernel (rowForm + linalg.ExpNonPos is the one transform path)" >&2
	exit 1
fi

echo "==> Gram-free HL (MatMulT in hlinear.go only on the PaperSplit branch)"
# The joint-update HL solve works on the rows (qp.SolveLinearBox); the dense
# N_m x N_m dual Hessian is PaperSplit's alone, whose equality-constrained SMO
# needs every gradient per pair selection.
if awk '/^\tif split \{/ { split_branch = 1 }
	/^\t\} else \{/ { split_branch = 0 }
	/MatMulT/ && !split_branch { print FILENAME ":" FNR ": " $0; found = 1 }
	END { exit !found }' internal/consensus/hlinear.go; then
	echo "error: a dense Gram outside hlMapper's PaperSplit branch (the joint path is Gram-free)" >&2
	exit 1
fi

echo "==> exact hinge prox (no bisection in the vertical reducer's solve)"
# SolveUniformDiagEqualityBox finds the segment of the piecewise-linear s(ν)
# holding the root and solves it in closed form, in a bounded number of passes.
# A dual-sum helper or a relative-width stopping rule would be the 54-pass
# bisection coming back beside it.
if grep -rnE 'diagDualSum|1e-15\*\(1\+' internal/qp --include="*.go" | grep -v "_test.go"; then
	echo "error: a bisection of the equality multiplier in internal/qp (the segment search is exact)" >&2
	exit 1
fi

echo "==> escape hygiene (no heap-moved locals in the tile kernels)"
# The 2x4 accumulator array in tile.go and cholesky.go (the factor's panel
# update) is handed to the assembly microkernel by pointer. A stub declared
# without //go:noescape makes the compiler move it to the heap: one allocation
# per tile, 31,000 for one 1000x250 kernel matrix and thousands per 600x600
# factor. tiled.go's panel loops and exp.go's slice loop (a row per call into
# the assembly exp) sit on the same path.
if go build -gcflags=-m ./internal/linalg ./internal/kernel 2>&1 \
	| grep -E '(tile|tiled|exp|cholesky)\.go:[0-9]+:[0-9]+: moved to heap'; then
	echo "error: a local of the tile kernels escapes (assembly stub without //go:noescape?)" >&2
	exit 1
fi

echo "==> go vet ./..."
go vet ./...

echo "==> go vet -vettool=ppml-vet ./... (privacy/concurrency invariants)"
go build -o bin/ppml-vet ./cmd/ppml-vet
go vet -vettool="$PWD/bin/ppml-vet" ./...

echo "==> go build ./..."
go build ./...

echo "==> GOARCH=arm64 build + vet of the compute layer (the stub/twin side of every assembly kernel)"
# Off amd64 hasFMA is false and the pure-Go twins are the only path; nothing
# in CI runs there, so at least keep it compiling and vet-clean.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet ./internal/linalg ./internal/kernel

echo "==> go test -race ./..."
go test -race ./...

echo "==> fuzz smoke (5 x 10s over the wire codecs and the packed layout)"
go test -fuzz FuzzFixedpointRoundtrip -fuzztime 10s -run '^$' ./internal/fixedpoint/
go test -fuzz FuzzWireDecode -fuzztime 10s -run '^$' ./internal/transport/
go test -fuzz FuzzWireDecode -fuzztime 10s -run '^$' ./internal/mapreduce/
go test -fuzz FuzzWireDecode -fuzztime 10s -run '^$' ./internal/paillier/
go test -fuzz FuzzPackedRoundtrip -fuzztime 10s -run '^$' ./internal/paillier/

echo "==> bench smoke (Gram + probe-shaped Accumulate + tiled kernels + blocked Cholesky + Gram-free QP + Paillier packing + scalability + minibatch + seeded share, 1 iteration)"
go test -run '^$' -bench 'Gram|Accumulate' -benchtime 1x ./internal/kernel/
go test -run '^$' -bench 'SolveLinearBox|SolveUniformDiag' -benchtime 1x ./internal/qp/
go test -run '^$' -bench 'MatMul500|MatMulT2000x50|Cholesky' -benchtime 1x ./internal/linalg/
go test -run '^$' -bench PaillierVector -benchtime 1x ./internal/mapreduce/
go test -run '^$' -bench Scalability -benchtime 1x .
go test -run '^$' -bench Minibatch -benchtime 1x ./internal/consensus/
go test -run '^$' -bench SeededShare -benchtime 1x ./internal/securesum/

echo "==> metrics smoke (live -metrics-addr endpoint on a real training run)"
sh scripts/metrics_smoke.sh

echo "ok: all checks passed"
