package consensus

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/telemetry"
	"github.com/ppml-go/ppml/internal/transport"
)

// Errors returned by the trainers.
var (
	// ErrBadConfig indicates unusable training parameters.
	ErrBadConfig = errors.New("consensus: bad configuration")
	// ErrBadPartition indicates malformed learner partitions.
	ErrBadPartition = errors.New("consensus: bad partition")
)

// qpTol is the KKT tolerance of the horizontal schemes' local dual solves.
const qpTol = 1e-6

// Config are the training parameters shared by all four schemes. The zero
// value is not usable; call Normalize or fill the required fields (C, Rho).
type Config struct {
	// C is the slack penalty of problem (1). The paper uses C = 50.
	C float64
	// Rho is the ADMM penalty ρ; the paper uses ρ = 100 and discusses the
	// convergence-vs-margin trade-off in Section VI.
	Rho float64
	// MaxIterations caps the consensus loop (paper plots 100). Default 100.
	MaxIterations int
	// Tol stops the loop when ‖z_{t+1} − z_t‖² drops below it. Default 0
	// (run the full budget, like the paper's plots); NaN, ±Inf and negative
	// values are rejected.
	Tol float64
	// Kernel is required by the kernel schemes and ignored by the linear
	// ones.
	Kernel kernel.Kernel
	// Landmarks is the number l of landmark points spanning the reduced
	// consensus space of Section IV-B. Default 20.
	Landmarks int
	// Seed drives landmark generation and any tie-breaking; fixed default 1.
	Seed int64
	// PaperSplit (HL only) reproduces the paper's printed Gauss-Seidel
	// (w,b)-split with the lagged equality constraint of eq. (12), instead
	// of the provably convergent joint update. See package doc.
	PaperSplit bool

	// ChunkRows sizes the row chunks of every local sub-problem: each
	// iteration a learner solves its ADMM step over one contiguous chunk of
	// at most ChunkRows rows, visiting chunks in a Seed-derived permutation
	// that reshuffles every epoch. Horizontal learners keep per-chunk duals
	// and warm starts; the vertical schemes run block-coordinate updates on
	// the shared score vector, with the Reducer following the same (shared)
	// chunk schedule. Zero means all rows — as does any value that is at
	// least a learner's row count — which is the paper's full-batch
	// iteration: one chunk, visited every round. Negative values are
	// rejected, and so is PaperSplit on a learner whose rows divide into more
	// than one chunk. See DESIGN.md §15.
	ChunkRows int
	// Staleness (distributed mode, masked aggregation with an elastic
	// StragglerTimeout) allows a learner's share to be computed against a
	// consensus state up to Staleness rounds old: the local solve runs on a
	// background worker and the round answers with the newest completed
	// contribution, scaled by StalenessDecay^s. Zero keeps rounds bulk-
	// synchronous. Rejected for the vertical schemes when ChunkRows divides
	// the records into more than one chunk (a stale chunk update would target
	// the wrong coordinate block). The range (0..255, the wire stamp's) is
	// the engine's to check, like StalenessDecay's and MinQuorum's: they are
	// forwarded untouched and mapreduce's policy is the one place that
	// defaults and validates them. See DESIGN.md §14–§15.
	Staleness int
	// StalenessDecay is the per-round weight decay κ ∈ (0, 1] applied to
	// stale contributions (weight κ^s); zero means the engine's default, 0.5.
	// Ignored without Staleness.
	StalenessDecay float64

	// Distributed runs the job on the full simulated cluster (transport,
	// secure aggregation). When false the trainers use the sequential
	// in-process engine, which computes the identical iterates.
	Distributed bool
	// Aggregation selects the Reducer protocol in distributed mode
	// (default: masked secure summation).
	Aggregation mapreduce.Aggregation
	// MaskMode selects the masked-aggregation variant: seed-derived round
	// masks (default — one pairwise seed exchange per session, O(M) messages
	// per round) or the paper's literal per-round masks (O(M²) messages per
	// round, information-theoretic). Per-round masks run strict rounds only:
	// the engine refuses them with a StragglerTimeout (mapreduce.ErrBadJob).
	// See DESIGN.md §10.
	MaskMode mapreduce.MaskMode
	// Network overrides the transport in distributed mode (default:
	// in-process channels).
	Network transport.Network
	// StragglerTimeout (distributed mode) makes rounds elastic (demote-and-
	// continue): a learner that misses the deadline is demoted for the
	// round instead of stalling the job, and rejoins when it catches up. The
	// consensus reducers scale their M-dependent coefficients to the weight
	// the engine announces for the round — the live roster's size. Zero keeps
	// membership fixed: a round waits until it completes or the context
	// ends. See DESIGN.md §14.
	StragglerTimeout time.Duration
	// MinQuorum is the smallest roster an elastic round will fold; below it
	// training fails rather than continuing on too few learners. 0 defaults
	// to 2 under masked aggregation (a roster of one would be effectively
	// unmasked) and 1 otherwise.
	MinQuorum int

	// EvalSet, when non-nil, is classified after every iteration and the
	// accuracy recorded in History — the data behind Fig. 4(e)–(h).
	EvalSet *dataset.Dataset

	// Telemetry, when non-nil, receives training metrics and spans: round
	// counters and durations from the engine, securesum traffic, QP solver
	// iterations, and the ADMM residual gauges. Only public scalars are
	// recorded — see DESIGN.md §11. Nil disables all recording at zero cost.
	Telemetry *telemetry.Registry
}

func (c Config) normalized() (Config, error) {
	if !(c.C > 0) {
		return c, fmt.Errorf("%w: C = %g, want > 0", ErrBadConfig, c.C)
	}
	if !(c.Rho > 0) {
		return c, fmt.Errorf("%w: Rho = %g, want > 0", ErrBadConfig, c.Rho)
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 100
	}
	if c.MaxIterations < 0 {
		return c, fmt.Errorf("%w: MaxIterations = %d", ErrBadConfig, c.MaxIterations)
	}
	// A NaN Tol would never stop the loop (delta < NaN is false) and a
	// negative one never could; both would silently run the budget.
	if !(c.Tol >= 0) || math.IsInf(c.Tol, 1) {
		return c, fmt.Errorf("%w: Tol = %g, want finite ≥ 0", ErrBadConfig, c.Tol)
	}
	if c.Landmarks == 0 {
		c.Landmarks = 20
	}
	if c.Landmarks < 0 {
		return c, fmt.Errorf("%w: Landmarks = %d", ErrBadConfig, c.Landmarks)
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ChunkRows < 0 {
		return c, fmt.Errorf("%w: ChunkRows = %d", ErrBadConfig, c.ChunkRows)
	}
	// The engine's policy owns the staleness window, its decay and the quorum
	// — defaults and ranges (mapreduce.ErrBadJob); the local engine has no
	// policy to hand them to.
	if c.Staleness != 0 && !c.Distributed {
		return c, fmt.Errorf("%w: Staleness needs Distributed (the local engine is bulk-synchronous)", ErrBadConfig)
	}
	return c, nil
}

// landmarkRand is the single sanctioned math/rand construction site in this
// package: the deterministic, Seed-keyed source behind the shared landmark
// points X_g and any tie-breaking. These values are NOT secret — X_g is
// public by construction (every learner and the Reducer must agree on the
// same landmarks, Lemma 4.2 discussion) — but they MUST be reproducible
// across learners and runs, which crypto/rand cannot provide. All
// security-relevant randomness (masks, Paillier nonces, DP noise) lives in
// the hard-audited packages and comes from crypto/rand; the randsource
// analyzer enforces both halves of this split.
func (c Config) landmarkRand() *rand.Rand {
	//ppml:deterministic-ok landmark points X_g are protocol-public and must be identical across learners; Config.Seed documents the determinism contract
	return rand.New(rand.NewSource(c.Seed))
}

// History records the per-iteration behaviour the paper plots in Fig. 4.
type History struct {
	// DeltaZSq[t] is ‖z_{t+1} − z_t‖² (panels a–d).
	DeltaZSq []float64
	// Accuracy[t] is the correct-classification ratio on Config.EvalSet
	// after iteration t (panels e–h); empty when EvalSet is nil.
	Accuracy []float64
	// Iterations actually run.
	Iterations int
	// Converged reports whether Tol was reached before the cap.
	Converged bool
	// Elapsed is the wall-clock training time.
	Elapsed time.Duration
	// Net holds transport counters (distributed mode only).
	Net transport.Stats
}

// runJob dispatches to the local or distributed engine per the config,
// threading the caller's context through either engine so a cancelled
// training run unwinds mid-iteration.
func runJob(ctx context.Context, cfg Config, job mapreduce.IterativeJob) (*mapreduce.IterativeResult, *History, error) {
	start := time.Now()
	h := &History{}
	var res *mapreduce.IterativeResult
	if !cfg.Distributed {
		// The local engine picks telemetry up from the context.
		var err error
		//ppml:flow-ok the registry handle is configuration plumbing — tainted only because Config also carries the eval dataset, not because any row reaches telemetry here
		if res, err = mapreduce.RunLocalContext(telemetry.NewContext(ctx, cfg.Telemetry), job); err != nil {
			return nil, nil, err
		}
	} else {
		dres, err := mapreduce.RunDistributed(ctx, job, mapreduce.DriverOptions{
			Network:          cfg.Network,
			Aggregation:      cfg.Aggregation,
			MaskMode:         cfg.MaskMode,
			StragglerTimeout: cfg.StragglerTimeout,
			MinQuorum:        cfg.MinQuorum,
			Staleness:        cfg.Staleness,
			StalenessDecay:   cfg.StalenessDecay,
			Telemetry:        cfg.Telemetry,
		})
		if err != nil {
			return nil, nil, err
		}
		res, h.Net = &dres.IterativeResult, dres.Net
	}
	h.Iterations, h.Converged, h.Elapsed = res.Iterations, res.Converged, time.Since(start)
	recordRun(cfg.Telemetry, h)
	return res, h, nil
}

// validateHorizontalParts checks the learner shares of a horizontal split.
func validateHorizontalParts(parts []*dataset.Dataset) (features int, err error) {
	if len(parts) == 0 {
		return 0, fmt.Errorf("%w: no learners", ErrBadPartition)
	}
	features = parts[0].Features()
	for i, p := range parts {
		if p == nil || p.Len() == 0 {
			return 0, fmt.Errorf("%w: learner %d has no data", ErrBadPartition, i)
		}
		if p.Features() != features {
			return 0, fmt.Errorf("%w: learner %d has %d features, learner 0 has %d",
				ErrBadPartition, i, p.Features(), features)
		}
		for j, y := range p.Y {
			if y != 1 && y != -1 {
				// Do not echo the label value: it is a training-data datum,
				// and validation errors end up in logs.
				return 0, fmt.Errorf("%w: learner %d label %d is not ±1", ErrBadPartition, i, j)
			}
		}
	}
	return features, nil
}

// validateVerticalParts checks the learner shares of a vertical split: same
// row count everywhere, identical shared labels, and a consistent column map.
func validateVerticalParts(parts []*dataset.Dataset, cols [][]int) (rows, features int, err error) {
	if len(parts) == 0 {
		return 0, 0, fmt.Errorf("%w: no learners", ErrBadPartition)
	}
	if len(cols) != len(parts) {
		return 0, 0, fmt.Errorf("%w: %d column maps for %d learners", ErrBadPartition, len(cols), len(parts))
	}
	rows = parts[0].Len()
	seen := map[int]bool{}
	for i, p := range parts {
		if p == nil || p.Len() != rows {
			return 0, 0, fmt.Errorf("%w: learner %d row count differs", ErrBadPartition, i)
		}
		if p.Features() == 0 || p.Features() != len(cols[i]) {
			return 0, 0, fmt.Errorf("%w: learner %d has %d features but %d column indices",
				ErrBadPartition, i, p.Features(), len(cols[i]))
		}
		for _, c := range cols[i] {
			if seen[c] {
				return 0, 0, fmt.Errorf("%w: column %d assigned twice", ErrBadPartition, c)
			}
			seen[c] = true
			if c >= features {
				features = c + 1
			}
		}
		for j := range p.Y {
			if p.Y[j] != parts[0].Y[j] {
				return 0, 0, fmt.Errorf("%w: learner %d label %d differs from learner 0 (labels must be shared)",
					ErrBadPartition, i, j)
			}
		}
	}
	if len(seen) != features {
		return 0, 0, fmt.Errorf("%w: column map covers %d of %d columns", ErrBadPartition, len(seen), features)
	}
	return rows, features, nil
}
