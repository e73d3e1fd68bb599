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
# secretflow's telemetry rule catches payload vectors reaching sinks; this
# cruder gate bans stdout printing and the stdlib logger outright in
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

echo "==> retired names (each removed surface stays gone from non-test Go)"
# One row per retired surface: the extended regex of its names, whether bench/
# is exempt (it is frozen by BENCHMARK.json, and a comment or a replay there
# may still name one), and the reason the gate prints. A name coming back
# would be a decision spelled twice again:
# - one event ring: the journal is telemetry's only event substrate;
# - one mapper per scheme: full batch is the one-chunk schedule;
# - one configuration spine: a round's cohort is the one weight Combine is
#   told, and the removed knobs had no caller;
# - one derivation per roster: a round's masks are expanded from the pair
#   keys over the roster it declares, not exchanged over it;
# - a round attempt is its roster, and a Contribution is deterministic;
# - the round rides in the envelope: msg.Round, which secretflow clears;
# - replace, don't fork: one KKT bias (svm.BiasFromKKT), one round log, one
#   way a qp solve gets its buffers (a Scratch), one call per mapper per
#   round, and no knob nothing sets;
# - one tile and one sum order; a body per ISA, each equal to the Go twin: the
#   outer-product tile over a pack made once per call, every output one FMA
#   chain;
# - a VK learner holds its factor and nothing else: the chunk's scores come
#   from its ridge solve, (K·α)|_c = q − y + off_c, not from a kernel strip;
# - one dot, one sum order: linalg.Dot (dotFMA, its twin dotGo) is the only
#   dot product, MulVec's rows included.
# - one selection rule for the box QP: linalg.BoxViolation, which the fused
#   step's twin, SolveBox's scans and its KKT gap all call.
# - one pass per RBF row: linalg.RBFRow forms the distance, clamps, scales
#   and takes the exp; a slice exp beside it would be the two-pass row back
#   (ExpNonPosScalar, the exp of RBF.Eval and the row's Go twin, stays).
# - one scoring path: a kernel model's Decision is its Decisions on one row,
#   so Kernel.Eval, the tests' reference, has no caller in a model.
# - mappers score, the reducer sums: the accuracy probe adds the learners'
#   partial decisions (partialDecisions) and reads no learner's block.
# - two aggregation backends, masked and plain: the end-to-end Paillier
#   backend is gone (internal/paillier stays for the overhead benchmarks).
# - no locality measurement that is zero by construction: a partition never
#   leaves its learner, and BenchmarkDataLocalityBytes is the Section I
#   evidence.
# - one privacy checker: secretflow's send and telemetry rules replace the
#   plaintextwire and telemetrysafe analyzers, and flow-ok is the one
#   directive that excuses a flow.
# - rounds, not clocks, decide fault outcomes: a demoted member is waited for
#   on the rejoin schedule (rounds d+1, d+2, d+4, … after its demotion), not
#   written off by a knob, and Kill is the one way to kill an endpoint.
# - the paper's four schemes are the library: HL, HK, VL and VK; consensus
#   logistic regression and secure naive Bayes are gone.
# - elastic rounds are the one answer to a slow learner: bounded staleness
#   (its options, background worker, ready stamp, κ^s weights, histogram and
#   benchmark panel) is gone. The transport's StaleDropped counter and the
#   engine's staleRoundFilter sweep late frames and stay.
# - one HL update: the joint (w, b) update of Forero et al.; the paper's
#   printed split, which lags b and so froze it at 0, is gone, and with it
#   every equality but the SVM dual's yᵀλ = 0, which λ = 0 always meets.
# - one mask derivation: every masked share is a seeded session's; the
#   paper's per-round mask exchange, its mode switch, options and flags are
#   gone (Party stays as the tests' reference telescope).
# - one share collection: a plain share is a ring share without masks,
#   summed by the one securesum.Collector under the one handshake; the
#   second fold, its folder interface and the loose plain round are gone.
# - one round driver: the engine runs every secure-summation round, securesum's
#   one-shot party and collector are gone, Combine is told what it folded,
#   and the transport's net.send/net.recv is the one record of a seed frame.
# A dead export under internal/ fails TestInternalExportsUsed; it gets no row.
retired_hits=0
while IFS='~' read -r pattern bench_exempt reason; do
	hits=$(grep -rnE "$pattern" . --include="*.go" | grep -v "_test.go" | grep -v "/testdata/" || true)
	if [ "$bench_exempt" = yes ]; then
		hits=$(printf '%s\n' "$hits" | grep -v "^./bench/" || true)
	fi
	if [ -n "$hits" ]; then
		printf '%s\n' "$hits"
		echo "error: $reason" >&2
		retired_hits=1
	fi
done <<'EOF'
StartSpan|RecentSpans|PPML_SPAN_RING|ParentSpan~no~span-ring surface in non-test Go (emit journal events instead)
ChunkMapper|combineChunk|hkLearner|vlBlock|vkBlock~no~a second mapper path in non-test Go (a schedule of one chunk is full batch)
SetRoundParticipants|RosterReducer|WithSecondOrder|QPSecondOrder|PaillierPackWidth~yes~a second cohort hook or a removed knob in non-test Go
attemptReready|"reready"|maskRosterFilter|RoundRoster|ShareOver\(~no~a per-round exchange over a changing roster in non-test Go (elastic rounds derive seeded masks)
\bAttempt\b|MapRetries|RoundTimeout|ppml_map_retries_total~yes~an attempt counter, RoundTimeout or MapRetries in non-test Go (the roster is the attempt)
StatePayload|CheckpointPlan|resumes from checkpoint|decoded from the reducer's public state broadcast~yes~a round carried outside the envelope, or a checkpoint, in non-test Go (msg.Round is the round)
biasFromScores|reducerGauges|gradPool|getGradBuf|putGradBuf|dropGrad|Packing\) Encrypt\(|pack\.Encrypt\(|lastIter|packWidth|QPTol~yes~a second copy of a replaced operation, a mapper round replay or a knob nothing sets in non-test Go (replace, don't fork)
dotTile2x4FMA|matMulTTile|transposeInto|packPool~no~a dot-form tile, its twin or the transpose pack in non-test Go (one tile and one sum order)
\bkcb\b~no~a held Gram strip in the VK learner ((K·α)|_c is q − y + off)
dotSeq~no~a second dot product with its own sum order in non-test Go (one dot, one sum order)
projectedGradient~no~a second box-QP projected-gradient predicate in non-test Go (linalg.BoxViolation is the one rule)
ExpNonPos\(|expNonPosFMA~no~a slice exp in non-test Go (linalg.RBFRow turns a row of dots into kernel values in one pass)
Kernel\.Eval\(|DecisionAt|decisionNoBias~no~a scalar kernel loop beside Decisions (one scoring path)
probeCopy|\.probe\.with\(~no~a learner's private block copied for the Reducer's probe (mappers publish partial decisions)
AggregationPaillier|PaillierKey|paillierFold|encryptContribution~no~two aggregation backends: masked and plain
TrackLocality|LocalityPlan|RemoteInputBytes|buildLocalityPlan~no~a locality measurement that is zero by construction
plaintextwire|telemetrysafe|plaintext-ok|telemetry-ok~no~a second privacy checker or its directive in non-test Go (secretflow's rules and //ppml:flow-ok)
WriteOffAfter|mapper\.writeoff|KillOutbound\(|KillInbound\(~no~a write-off knob or a one-way kill in non-test Go (the rejoin schedule bounds a dead member's cost; Kill cuts both ways)
HorizontalLogistic|HorizontalNaiveBayes|TrainHorizontalLogistic|TrainNaiveBayes|LogisticModel|NaiveBayesModel|newtonSolve~no~the paper's four schemes: HL, HK, VL, VK
WithStaleness|StalenessDecay|asyncComputer|stalenessStamp|decayWeight|ppml_round_staleness|RunAsync|AsyncReport|printAsync~no~bounded staleness in non-test Go (elastic rounds are the one answer to a slow learner)
WithPaperSplit|PaperSplit|ErrInfeasible|repairEquality|AblationSplit~no~the paper's printed (w, b) split or an equality other than yᵀλ = 0 in non-test Go (one HL update)
MaskPerRound|WithPerRoundMasks|PerRoundParty|PerRoundMasks|KindMask|MaskMode|mask-mode|RecordMask~no~a second mask derivation in non-test Go (every masked share is a seeded session's)
plainFold|maskedFold|newFolder|handshake bool|\.void\(~no~a second share fold or round shape in non-test Go (one share collection: a plain share is a ring share without masks)
RunParty|RunCollector|WeightedReducer|SetRoundWeight|JournalSeedSent|JournalSeedRecv~no~a second round driver, a second reducer hook or a second record of a frame in non-test Go (one round driver: the engine runs every round and tells Combine what it folded)
EOF
[ "$retired_hits" -eq 0 ] || exit 1

echo "==> option surface (18 ppml.With* options; the struct field counts are TestOptionSurfacePinned's)"
# Pinned so the next knob has to be argued for: a new option needs two callers
# with different values (ROADMAP item 9; the simplicity-review rule).
if [ "$(cat ppml.go telemetry.go | grep -c '^func With')" -ne 18 ]; then
	echo "error: ppml.With* option count moved from 18 (a new option needs two callers with different values — see ROADMAP)" >&2
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
# row is one pass of linalg.RBFRow, which runs the one exp of the compute
# layer; RBF.Eval calls that exp's scalar form, ExpNonPosScalar. A math.Exp
# in the package would be a second exp with other bits; a per-element
# func(dot, sqSum) closure would be the 1.4 M indirect calls a vk_scores
# round that the row form removed.
if grep -nE 'math\.Exp\(|func\((dot|d), ?(sqSum|s|_) float64\) float64' internal/kernel/*.go | grep -v "_test.go"; then
	echo "error: math.Exp or a per-element dot-form closure in internal/kernel (rowForm + linalg.RBFRow is the one transform path)" >&2
	exit 1
fi

echo "==> Gram-free HL (no dense Hessian in hlinear.go)"
# The one HL update, the joint (w, b) one, solves over the rows with
# qp.SolveLinearBox. A MatMulT or the dense SMO there would be the N_m x N_m
# Gram coming back.
if grep -nE 'MatMulT|SolveEqualityBox' internal/consensus/hlinear.go; then
	echo "error: a dense Gram or the dense SMO in hlinear.go (the HL update is Gram-free)" >&2
	exit 1
fi

echo "==> inexact local solves (every HL and HK solve takes the round's tolerance)"
# A horizontal mapper's local dual is solved to the inexact-ADMM rule's
# tolerance (localSolve.tolerance, DESIGN.md §17), which falls to qpTol as the
# consensus settles. Any other tolerance handed to a solve in the package,
# qpTol passed straight included, would be the fixed tolerance coming back
# beside the rule.
if grep -nE 'WithTolerance\(' internal/consensus/*.go | grep -v "_test.go" \
	| grep -vE '^internal/consensus/localsolve\.go:[0-9]+:.*WithTolerance\(s\.tolerance\(state\)\)'; then
	echo "error: a local solve in internal/consensus given a tolerance other than the round's (route it through localSolve)" >&2
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
# tile.go's row tile hands its arrays of a rows and output rows, and the
# edge panel's stack buffer, to the assembly tile by pointer, and cholesky.go's
# panel update hands it its buffer of panel sums. A stub declared without
# //go:noescape makes the compiler move them to the heap, up to four
# allocations per row tile: 686 for one 1000x250 kernel matrix. The
# pack and the tile live in tile.go; tiled.go's panel loops and rbfrow.go's
# RBFRow (a row and its norms per call into the fused assembly row) sit on
# the same path, and so do vector.go's Dot and Axpy, which hand their slices
# to dotFMA and axpyFMA, boxstep.go's AxpyMaxViolator, which hands its
# three to the fused box-QP step, and sweep.go's LinearSweep, which hands the
# SweepState that qp's linear.go keeps on its stack to the fused HL sweep.
if go build -gcflags=-m ./internal/linalg ./internal/kernel ./internal/qp 2>&1 \
	| grep -E '(tile|tiled|exp|rbfrow|cholesky|vector|boxstep|sweep|linear)\.go:[0-9]+:[0-9]+: moved to heap'; then
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

# The packages on the whole data → train → score path: the data generators
# and the split, the consensus trainers and their round engine, the masked
# sum and its codec, the DP release, the compute layer, the solvers, the
# centralized SVM, the accuracy metric and the root package.
data_to_score="internal/dataset internal/partition internal/consensus internal/mapreduce internal/securesum internal/fixedpoint internal/dp internal/linalg internal/kernel internal/qp internal/svm internal/eval ."

echo "==> GOARCH=arm64 build + vet of the data-to-score path (the stub/twin side of every assembly kernel)"
# Off amd64 hasFMA is false and the pure-Go twins are the only path; nothing
# in CI runs there, so at least keep it compiling and vet-clean.
GOARCH=arm64 go build ./...
GOARCH=arm64 go vet $(printf './%s ' $data_to_score)

echo "==> arm64 no-fusion gate (every product on the data-to-score path is rounded on its own)"
# The Go spec lets a compiler fuse x*y + z into one rounding. arm64 does
# (FMADDD), amd64 never does, even at GOAMD64=v3, so a fused product is a
# data set, a kernel value, a solver step or a model whose bits depend on the
# platform. Every package on the path writes a product that meets an
# addition as float64(…), which forbids the fusion; the one fused
# multiply-add allowed is math.FMA, which is one by contract. A fused
# instruction passes only on a source line that calls math.FMA. The listing
# must show a line of each package, so an empty one cannot pass.
arm64_listing=$(GOARCH=arm64 go build -gcflags=-S $(printf './%s ' $data_to_score) 2>&1)
for pkg in $data_to_score; do
	dir=${pkg%.}
	if ! printf '%s\n' "$arm64_listing" | grep -qE "\($PWD/${dir:+$dir/}[a-z_0-9]*\.go:"; then
		echo "error: the arm64 -S listing shows no line of $pkg" >&2
		exit 1
	fi
done
fused_sites=$(printf '%s\n' "$arm64_listing" | grep -E '\b(FMADD|FMSUB|FNMADD|FNMSUB)' \
	| sed -nE "s|.*\($PWD/([a-z_0-9/]*\.go:[0-9]+)\).*|\1|p" | sort -u)
fused_bad=0
for site in $fused_sites; do
	if ! sed -n "${site##*:}p" "${site%:*}" | grep -q 'math\.FMA('; then
		echo "$site: $(sed -n "${site##*:}p" "${site%:*}")"
		fused_bad=1
	fi
done
if [ "$fused_bad" -ne 0 ]; then
	echo "error: a compiler-fused multiply-add outside math.FMA on arm64 (round the product with float64(…))" >&2
	exit 1
fi

echo "==> twin tests at GOAMD64=v3 (the assembly against Go twins compiled with FMA in the baseline ISA)"
# The Go spec lets a compiler fuse x*y + z into one rounding, and at v3 FMA
# is part of the baseline instruction set. A fused multiply-add the compiler
# chose would split a twin from its assembly without a line of either
# changing, so the bit-equality tests run again with the twins built for v3,
# each against every assembly body (AVX-512 and AVX2) the host runs, and so
# do the kernel models' Decision-against-Decisions tests.
GOAMD64=v3 go test -count=1 -run 'Twin|Contract|LaneAndOffset|MatchesFMA|MatchesTwoPass|MatchesScalarLoops|MatchesReference|TiledPathMatchesEval|GramParallelMatchesSequential|DecisionsMatchDecision' ./internal/linalg ./internal/kernel ./internal/qp ./internal/consensus ./internal/svm

echo "==> go test -race ./..."
go test -race ./...

echo "==> chaos scenarios in a synctest bubble (one fake duration per scenario, 20 runs)"
# In a bubble compute takes no time, so a chaos job's duration is its
# straggler windows; faults keyed to rounds and the rejoin schedule make it
# the same on every run. A second duration is an outcome the clock decided.
# Go 1.24 ships testing/synctest behind this experiment only.
GOEXPERIMENT=synctest go test -count=20 -run TestElasticChaosInBubble ./internal/consensus/

echo "==> fuzz smoke (5 x 10s over the wire codecs, the buffered frame reader and the packed layout)"
go test -fuzz FuzzFixedpointRoundtrip -fuzztime 10s -run '^$' ./internal/fixedpoint/
go test -fuzz FuzzWireDecode -fuzztime 10s -run '^$' ./internal/transport/
go test -fuzz FuzzFrameStream -fuzztime 10s -run '^$' ./internal/transport/
go test -fuzz FuzzWireDecode -fuzztime 10s -run '^$' ./internal/mapreduce/
go test -fuzz FuzzPackedRoundtrip -fuzztime 10s -run '^$' ./internal/paillier/

echo "==> bench smoke (Gram + probe-shaped Accumulate + tiled kernels + blocked Cholesky and the VK ridge solve + Dot/Axpy and the fused HL sweep + the HK step's AxpyMaxViolator + the fused RBF row + the QP solvers + Paillier packing + scalability + minibatch + the HK probe round + seeded share, 1 iteration; Accumulate, the RBF row and MatMulT2000x50 once per body: avx512, avx2, purego)"
go test -run '^$' -bench 'Gram|Accumulate' -benchtime 1x ./internal/kernel/
go test -run '^$' -bench 'SolveLinearBox|SolveUniformDiag|SolveBox' -benchtime 1x ./internal/qp/
go test -run '^$' -bench 'MatMul500|MatMulT2000x50|Cholesky|Dot|Axpy|RBFRow664|LinearSweep' -benchtime 1x ./internal/linalg/
go test -run '^$' -bench PaillierVector -benchtime 1x ./internal/paillier/
go test -run '^$' -bench Scalability -benchtime 1x .
go test -run '^$' -bench 'Minibatch|HKProbeRound' -benchtime 1x ./internal/consensus/
go test -run '^$' -bench SeededShare -benchtime 1x ./internal/securesum/

echo "==> metrics smoke (live -metrics-addr endpoint on a real training run)"
sh scripts/metrics_smoke.sh

echo "ok: all checks passed"
