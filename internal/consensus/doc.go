// Package consensus implements the paper's primary contribution: ADMM-based
// consensus training over MapReduce with privacy-preserving aggregation at
// the Reducer — the four SVM variants of Section IV ({linear, kernel} ×
// {horizontally, vertically} partitioned data), plus secure feature
// standardization on the same machinery.
//
// Every trainer decomposes the global SVM into per-learner sub-problems
// (Map), aggregates only masked local iterates (secure summation at Reduce),
// and feeds the consensus back until ‖z_{t+1} − z_t‖² falls below tolerance —
// the loop of Fig. 1, executed on the iterative MapReduce engine.
//
// # Derivations actually implemented
//
// The paper's printed equations (10)–(13), (19) and (29) contain OCR-level
// typos and one structural defect (the lagged equality constraint in (12)
// freezes the bias; see below). The implementation therefore follows
// the clean derivations below, which agree with the paper's own foundations —
// Forero, Cano, Giannakis (JMLR 2010) for the horizontal case and Boyd et al.
// §7.3 (sharing ADMM) for the vertical case.
//
// Horizontal, linear (HL). Local problem at learner m with consensus
// (z, s) and scaled duals (γ_m, β_m):
//
//	min  1/(2M)‖w‖² + C·1ᵀξ + ρ/2‖w − (z−γ_m)‖² + ρ/2 (b − (s−β_m))²
//	s.t. Y_m(X_m w + 1b) ≥ 1 − ξ,  ξ ≥ 0.
//
// Eliminating (w, b, ξ) jointly gives a BOX-ONLY dual in λ ∈ [0,C]^{N_m}:
//
//	Q = η·Y X Xᵀ Y + (1/ρ)·y yᵀ,   η = M/(1+ρM)
//	P_i = ηρ·y_i·x_iᵀu + t·y_i − 1,   u = z−γ_m,  t = s−β_m
//	w = η(XᵀYλ + ρu),   b = t + (1/ρ)·yᵀλ.
//
// The (1/ρ)yyᵀ term is exactly what the paper's equality constraint becomes
// when b is eliminated analytically instead of lagged. The printed update
// keeps the lagged equality yᵀλ = ρ(b_prev − s + β), and its bias
// b = t + yᵀλ/ρ is then b_prev: it never moves from 0. This joint update is
// the 2-block ADMM the paper's Lemma 4.2 covers, and the only HL update.
// Q = Y(η·XXᵀ + (1/ρ)·11ᵀ)Y is never formed: qp.SolveLinearBox runs dual
// coordinate descent on the rows, keeping Xᵀ(y∘λ) and yᵀλ, at O(k) a step
// (DESIGN.md §17). Consensus updates are
// z ← mean(w_m + γ_m), s ← mean(b_m + β_m) (computed via secure summation),
// and the duals advance by γ_m ← γ_m + w_m − z on receipt of the new z.
//
// Horizontal, kernel (HK). Consensus moves to the landmark projection
// z = G w_m ∈ R^l with G = φ(X_g) for l public landmark points X_g
// (Section IV-B). With P = (I/M + ρGᵀG)⁻¹ and the Woodbury identity
// (eq. 20), every P-product reduces to kernel blocks; writing
// K⁻¹_g = (I + ρM·K_gg)⁻¹:
//
//	ΦPΦᵀ  = M[K_mm − ρM·K_mg·K⁻¹_g·K_gm]
//	ΦPGᵀ  = M[K_mg − ρM·K_mg·K⁻¹_g·K_gg]
//	GPGᵀ  = M[K_gg − ρM·K_gg·K⁻¹_g·K_gg]
//
// and the local dual is the HL dual with YXXᵀY → Y·ΦPΦᵀ·Y and
// ηρ·YXu → ρ·Y·ΦPGᵀ·(z−r_m). The learner's share of the consensus is
// Gw = (ΦPGᵀ)ᵀYλ + ρ·GPGᵀ(z−r_m), and its discriminant for a test point x
// substitutes K(x, X_m) and K(x, X_g) rows into the same formulas (eq. 25).
//
// Both horizontal schemes solve their local dual inexactly: to
// clamp(min(0.1·d, 10·d²), 1e-6, 1e-2) with d = ‖z_t − z_{t−1}‖₂, the
// distance the broadcast moved into the round, so a solve is loose while the
// consensus is far from its fixed point and as strict as 1e-6 once it is
// near (localSolve; DESIGN.md §17).
//
// Vertical (VL/VK). With feature blocks X_m and per-block weights w_m, the
// global problem is the sharing form min Σ_m ½‖w_m‖² + g(Σ_m X_m w_m) with
// g the hinge loss over scores. Boyd's sharing ADMM gives:
//
//	w_m ← ρ(I + ρX_mᵀX_m)⁻¹X_mᵀ q_m,   q_m = X_m w_m + (z̄ − ā − u)
//	Reducer: ā = (1/M)·Σ X_m w_m (secure sum), then the prox-hinge QP
//	  min ½(M/ρ)‖λ‖² + (M·Y(u+ā) − 1)ᵀλ  s.t. 0 ≤ λ ≤ C, yᵀλ = 0
//	  with ζ = M(u+ā) + (M/ρ)Yλ, z̄ = ζ/M, u ← u + ā − z̄.
//
// The Hessian is uniform-diagonal, so the Reducer uses the exact breakpoint
// search qp.SolveUniformDiagEqualityBox (a few O(N) passes, no tolerance) —
// the paper's printed A = (1/ρ)Y11ᵀY
// is rank-one and cannot be this Hessian (see DESIGN.md) — and recovers b
// from the step's KKT conditions on ζ with svm.BiasFromKKT, the centralized
// baseline's rule. The kernel variant
// VK replaces the ridge solve by its kernelized form via Woodbury:
// Φ_m w_m = ρK_m(I+ρK_m)⁻¹q_m with K_m the block-feature Gram matrix, so only
// kernel evaluations on the learner's own feature block are ever needed.
//
// # One mapper per scheme: a schedule of virtual learners
//
// Each scheme has one Map() task (hlMapper, hkMapper, vlMapper, vkMapper) and
// the formulas above appear once. A mapper walks a chunkSchedule: its rows
// are cut into J = ⌈rows/ChunkRows⌉ contiguous chunks, visited in a seeded
// permutation reshuffled every epoch, and each round solves the local
// sub-problem over the scheduled chunk only. ChunkRows = 0 (or anything at
// least the row count) is J = 1, the paper's full-batch iteration; it is not
// a separate code path, and TestOneChunkIsFullBatch holds the two spellings
// to the same bits.
//
// Horizontal (HL/HK): every chunk is a virtual learner of the consensus
// (virtualLearners). The cohort has M′ = Σ_m J_m of them, every M in the
// formulas above is M′, each chunk keeps its own scaled duals, last iterate
// and QP warm start, and the mapper contributes the running mean of its
// chunks' (iterate + dual) terms — one refreshed per round, J−1 stale — so
// the Reducer's mean is the M′-learner z-update. With J = 1 the mean is the
// single term.
//
// Vertical (VL/VK): the records are shared, so all mappers and the Reducer
// follow one schedule (sharedChunkStream). A round refits the learner's
// whole block to the chunk's rows, weighted s = N/n_c to stand in for the
// record set, and contributes scores on the chunk's coordinates only; the
// Reducer folds and prox-updates exactly those coordinates of ā, z̄ and u and
// leaves the rest at their last values, so the broadcast z̄ − ā − u stays
// consistent everywhere. With J = 1, s = 1 and the chunk is every record.
//
// What a mapper derives from a chunk's rows alone — HK's P-folded blocks,
// VL's ridge factor and X_c·w, VK's factor, (K·α)|_c and off_c —
// is remembered for the chunk index it was built for and rebuilt only when
// the schedule visits a different chunk. One chunk therefore means built
// once, several means one chunk-sized rebuild a round, and nothing asks which
// case it is. HL derives nothing: its solve reads the chunk's rows directly,
// so a new chunk costs the fetch and no rebuild. Everything an iterate
// depends on across rounds (duals, warm starts, w, α) is kept per chunk or
// per learner and never rebuilt.
//
// Rows are read where they live. HK, VL and VK hold their partition, view
// chunk rows in place, and are constructed holding their first chunk's
// blocks (constructors run one at a time, first rounds side by side, and a
// build has chunk-squared intermediates). HL reads through a
// dataset.Prefetcher, which serves an in-memory partition as views of its
// storage and a streamed one (TrainHorizontalLinearStreamed over
// dataset.OpenDFS) as double-buffered decoded copies, so only HL trains out
// of core, holding two chunk buffers and O(chunk + k) of solver state. Every
// mapper round is observed in the ppml_chunk_seconds histogram.
//
// # The cohort is a weight
//
// Neither reducer knows how many learners there are. Before every Combine the
// engine announces the weight of the round's sum (mapreduce.WeightedReducer):
// the number of learners folded — M on the local engine and under strict
// rounds, the live roster after a demotion — and every M in the Reducer
// formulas above is that number. For the
// per-round accuracy probe (Config.EvalSet) each VL, VK and HK mapper scores
// the eval rows on its own block at the end of Contribution and hands the
// Reducer those partial decisions (partialDecisions); the Reducer adds them
// up with the public terms it holds — the vertical bias b, HK's landmark term
// in z — and counts the signs, without building a model or reading a
// learner's rows or coefficients. HL scores the consensus state. An HK mapper
// keeps the kernel part of its partials as a running sum and adds in only the
// rows whose dual moved since the last round; when as many moved as are
// nonzero it rescores from zero, so no round scores more rows than a full
// rescore (ppml_probe_kernel_rows_total counts them). The trained model is
// assembled once, after the job has drained every mapper, and keeps each
// learner's support rows only. Both
// reducers end a round in one roundLog.record: the ‖Δz‖² series, its gauge
// and journal event, the probe, and the Tol test.
//
// # Privacy
//
// What leaves each Mapper per iteration is exactly one vector — (w+γ, b+β)
// for HL, (Gw+r, b+β) for HK, X_m w_m for VL/VK — and under the default
// masked aggregation the Reducer observes only the SUM of those vectors
// (plus, in the vertical case, the labels, which Section IV-C assumes are
// shared). Individual local iterates, which Section V argues could be
// reverse-engineered into training data, are never visible to anyone.
package consensus
