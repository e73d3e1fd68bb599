// Package ppml is a Go implementation of the privacy-preserving machine
// learning framework of Xu, Yue, Guo, Guo and Fang, "Privacy-preserving
// Machine Learning Algorithms for Big Data Systems" (IEEE ICDCS 2015).
//
// A group of organizations jointly train a support vector machine without
// revealing their private training data to each other or to the coordinator.
// Training runs as an iterative MapReduce job: each learner is a Mapper that
// keeps its data local (data locality) and solves a small ADMM sub-problem
// per iteration; the Reducer aggregates only the learners' masked local
// iterates through a coalition-resistant secure summation protocol and feeds
// the consensus back until convergence.
//
// The paper's four SVM schemes are provided — linear and kernel SVMs over
// horizontally partitioned data (each learner holds a subset of the records)
// and over vertically partitioned data (each learner holds a subset of the
// feature columns; labels are shared) — plus two further algorithm families
// on the same machinery: consensus logistic regression and single-round
// secure Gaussian Naive Bayes. Multiclass tasks train one-vs-rest
// (TrainMulticlassContext), and trained models persist as versioned JSON
// together with their feature scaler (SaveModelWithScaler).
//
// # Quick start
//
//	data := ppml.SyntheticCancer(0, 1)
//	train, test, _ := data.Split(0.5)
//	ppml.Standardize(train, test)
//	res, _ := ppml.Train(train, ppml.HorizontalLinear,
//	    ppml.WithLearners(4), ppml.WithC(50), ppml.WithRho(100),
//	    ppml.WithEvalSet(test))
//	acc, _ := ppml.Evaluate(res.Model, test)
//
// By default training simulates the full distributed system in process. Use
// WithDistributed to run every Mapper and the Reducer as separate nodes
// exchanging messages (and executing the real secure-summation rounds) over
// an in-process or TCP transport.
package ppml

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"github.com/ppml-go/ppml/internal/consensus"
	"github.com/ppml-go/ppml/internal/dataset"
	"github.com/ppml-go/ppml/internal/dp"
	"github.com/ppml-go/ppml/internal/eval"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/mapreduce"
	"github.com/ppml-go/ppml/internal/partition"
	"github.com/ppml-go/ppml/internal/svm"
	"github.com/ppml-go/ppml/internal/transport"
)

// ErrBadRequest indicates invalid arguments to Train or Evaluate.
var ErrBadRequest = errors.New("ppml: bad request")

// Scheme selects the partitioning and SVM variant of Section IV.
type Scheme int

// The four training schemes of the paper.
const (
	// HorizontalLinear trains a linear SVM over row-partitioned data.
	HorizontalLinear Scheme = iota + 1
	// HorizontalKernel trains a kernel SVM over row-partitioned data using
	// the landmark consensus of Section IV-B.
	HorizontalKernel
	// VerticalLinear trains a linear SVM over column-partitioned data.
	VerticalLinear
	// VerticalKernel trains an additive kernel SVM over column-partitioned
	// data.
	VerticalKernel
	// HorizontalLogistic trains L2-regularized logistic regression over
	// row-partitioned data with the same consensus + secure-summation
	// machinery (the framework is not SVM-specific).
	HorizontalLogistic
	// HorizontalNaiveBayes fits Gaussian Naive Bayes over row-partitioned
	// data in a single secure-summation round: the classifier's sufficient
	// statistics are sums, the one operation the Section V protocol computes
	// privately.
	HorizontalNaiveBayes
)

// schemeRow is everything the package knows about one scheme: a seventh
// scheme is one more row of schemes, and String, ParseScheme, SchemeNames and
// TrainContext follow.
type schemeRow struct {
	name string
	// vertical partitions the feature columns (labels shared) and hands the
	// trainer the column map; otherwise the rows are partitioned. Secure
	// standardization is a protocol over row partitions, so this column also
	// decides WithSecureStandardization.
	vertical bool
	// linear marks a model that is a (w, b) pair, which is what WithDPOutput
	// knows how to perturb.
	linear bool
	train  trainFunc
}

type trainFunc func(ctx context.Context, parts []*dataset.Dataset, cols [][]int, cfg consensus.Config) (Model, *consensus.History, error)

// byRows adapts a trainer over row partitions to a table entry.
func byRows[M Model](train func(context.Context, []*dataset.Dataset, consensus.Config) (M, *consensus.History, error)) trainFunc {
	return func(ctx context.Context, parts []*dataset.Dataset, _ [][]int, cfg consensus.Config) (Model, *consensus.History, error) {
		m, h, err := train(ctx, parts, cfg)
		return m, h, err
	}
}

// byColumns adapts a trainer over column partitions to a table entry.
func byColumns[M Model](train func(context.Context, []*dataset.Dataset, [][]int, consensus.Config) (M, *consensus.History, error)) trainFunc {
	return func(ctx context.Context, parts []*dataset.Dataset, cols [][]int, cfg consensus.Config) (Model, *consensus.History, error) {
		m, h, err := train(ctx, parts, cols, cfg)
		return m, h, err
	}
}

// schemes is indexed by Scheme; index 0 is not a scheme.
var schemes = [...]schemeRow{
	HorizontalLinear:     {name: "horizontal-linear", linear: true, train: byRows(consensus.TrainHorizontalLinear)},
	HorizontalKernel:     {name: "horizontal-kernel", train: byRows(consensus.TrainHorizontalKernel)},
	VerticalLinear:       {name: "vertical-linear", vertical: true, linear: true, train: byColumns(consensus.TrainVerticalLinear)},
	VerticalKernel:       {name: "vertical-kernel", vertical: true, train: byColumns(consensus.TrainVerticalKernel)},
	HorizontalLogistic:   {name: "horizontal-logistic", linear: true, train: byRows(consensus.TrainHorizontalLogistic)},
	HorizontalNaiveBayes: {name: "horizontal-naivebayes", train: byRows(consensus.TrainNaiveBayes)},
}

// row looks s up in the table.
func (s Scheme) row() (schemeRow, bool) {
	if s < 1 || int(s) >= len(schemes) {
		return schemeRow{}, false
	}
	return schemes[s], true
}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	if row, ok := s.row(); ok {
		return row.name
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// SchemeNames lists the name of every scheme, in declaration order.
func SchemeNames() []string {
	names := make([]string, 0, len(schemes)-1)
	for _, row := range schemes[1:] {
		names = append(names, row.name)
	}
	return names
}

// ParseScheme is the inverse of Scheme.String; an unknown name is an
// ErrBadRequest that lists the known ones.
func ParseScheme(name string) (Scheme, error) {
	names := SchemeNames()
	for i, known := range names {
		if known == name {
			return Scheme(i + 1), nil
		}
	}
	return 0, fmt.Errorf("%w: unknown scheme %q (want %s)", ErrBadRequest, name, strings.Join(names, ", "))
}

// Model is a trained classifier.
type Model interface {
	// Predict returns the class label of x: +1 or −1.
	Predict(x []float64) float64
	// Decision returns the real-valued discriminant f(x); its sign is the
	// prediction and its magnitude a confidence. x must be as wide as the
	// training samples: a kernel model panics with a shape error on any
	// other width. A kernel model's Decision is, bit for bit, the value the
	// evaluation-set accuracy of History takes the sign of.
	Decision(x []float64) float64
}

// History records per-iteration training behaviour — the quantities the
// paper plots in Fig. 4.
type History struct {
	// DeltaZSq[t] is ‖z_{t+1} − z_t‖², the consensus convergence measure.
	DeltaZSq []float64
	// Accuracy[t] is the evaluation-set accuracy after iteration t
	// (present only when WithEvalSet was given).
	Accuracy []float64
	// Iterations actually executed.
	Iterations int
	// Converged reports whether the tolerance stopped training early.
	Converged bool
	// ElapsedSeconds is the wall-clock training time.
	ElapsedSeconds float64
	// MessagesSent and BytesSent count transport traffic (distributed mode).
	MessagesSent int64
	BytesSent    int64
}

// Result bundles a trained model with its history.
type Result struct {
	Model   Model
	History History
	// Scheme that produced the model.
	Scheme Scheme
	// Learners the data was partitioned across.
	Learners int
	// Scaler is the securely fitted feature scaler when training used
	// WithSecureStandardization; nil otherwise.
	Scaler *Scaler
}

// Train partitions data across the configured learners and runs the selected
// privacy-preserving consensus scheme. It is TrainContext with a background
// context; use TrainContext to cancel training or bound it with a deadline.
func Train(data *Dataset, scheme Scheme, opts ...Option) (*Result, error) {
	return TrainContext(context.Background(), data, scheme, opts...)
}

// TrainContext is Train under a caller-controlled context: cancellation or an
// expired deadline unwinds every simulated node mid-round — all goroutines
// exit and the context's error is returned — instead of running out the
// iteration budget.
func TrainContext(ctx context.Context, data *Dataset, scheme Scheme, opts ...Option) (*Result, error) {
	if data == nil || data.inner == nil {
		return nil, fmt.Errorf("%w: nil data set", ErrBadRequest)
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	row, ok := scheme.row()
	switch {
	case !ok:
		return nil, fmt.Errorf("%w: unknown scheme %d", ErrBadRequest, int(scheme))
	case o.learners < 1:
		return nil, fmt.Errorf("%w: %d learners", ErrBadRequest, o.learners)
	case o.secureStandardize && row.vertical:
		return nil, fmt.Errorf("%w: WithSecureStandardization applies to the horizontal schemes (vertical learners standardize their own columns locally)", ErrBadRequest)
	case o.dpEpsilon > 0 && !row.linear:
		return nil, fmt.Errorf("%w: WithDPOutput supports only the linear schemes", ErrBadRequest)
	}
	cfg := o.cfg

	split := partition.Horizontal
	if row.vertical {
		split = partition.Vertical
	}
	parts, cols, err := split(data.inner, o.learners, rand.New(rand.NewSource(o.partitionSeed)))
	if err != nil {
		return nil, fmt.Errorf("ppml: %w", err)
	}
	var scaler *Scaler
	if o.secureStandardize {
		inner, err := consensus.SecureStandardize(ctx, parts, cfg)
		if err != nil {
			return nil, fmt.Errorf("ppml: %w", err)
		}
		scaler = &Scaler{inner: inner}
		if cfg.EvalSet != nil {
			scaled := cfg.EvalSet.Clone()
			if err := inner.Apply(scaled); err != nil {
				return nil, fmt.Errorf("ppml: %w", err)
			}
			cfg.EvalSet = scaled
		}
	}
	model, h, err := row.train(ctx, parts, cols, cfg)
	if err != nil {
		return nil, fmt.Errorf("ppml: %w", err)
	}
	if o.dpEpsilon > 0 {
		if err := applyDP(model, o); err != nil {
			return nil, err
		}
	}
	res := newResult(model, h, scheme, o.learners)
	res.Scaler = scaler
	return res, nil
}

// applyDP perturbs a trained linear model in place (WithDPOutput). The
// logistic minimizer has the same sensitivity form as the SVM's under the
// shared C-parameterization.
func applyDP(model Model, o options) error {
	var w []float64
	var b *float64
	switch m := model.(type) {
	case *consensus.LinearModel:
		w, b = m.W, &m.B
	case *consensus.LogisticModel:
		w, b = m.W, &m.B
	default:
		return fmt.Errorf("%w: WithDPOutput supports only the linear schemes", ErrBadRequest)
	}
	// Perturb (w, b) jointly: the bias is part of the released minimizer.
	wb := make([]float64, len(w)+1)
	copy(wb, w)
	wb[len(w)] = *b
	if err := dp.PerturbVector(wb, o.dpEpsilon, dp.SVMSensitivity(o.cfg.C), nil); err != nil {
		return fmt.Errorf("ppml: %w", err)
	}
	copy(w, wb[:len(w)])
	*b = wb[len(w)]
	return nil
}

func newResult(model Model, h *consensus.History, scheme Scheme, learners int) *Result {
	return &Result{
		Model: model,
		History: History{
			DeltaZSq:       h.DeltaZSq,
			Accuracy:       h.Accuracy,
			Iterations:     h.Iterations,
			Converged:      h.Converged,
			ElapsedSeconds: h.Elapsed.Seconds(),
			MessagesSent:   h.Net.Messages,
			BytesSent:      h.Net.Bytes,
		},
		Scheme:   scheme,
		Learners: learners,
	}
}

// TrainCentralized trains the paper's benchmark: an ordinary SVM on the
// pooled data with no privacy protection. Use it to quantify what the
// consensus schemes give up (Section VI compares against exactly this).
func TrainCentralized(data *Dataset, opts ...Option) (*Result, error) {
	if data == nil || data.inner == nil {
		return nil, fmt.Errorf("%w: nil data set", ErrBadRequest)
	}
	o := defaultOptions()
	for _, opt := range opts {
		opt(&o)
	}
	m, err := svm.Train(data.inner.X, data.inner.Y, svm.Params{
		C:      o.cfg.C,
		Kernel: o.cfg.Kernel,
	})
	if err != nil {
		return nil, fmt.Errorf("ppml: %w", err)
	}
	return &Result{Model: m, Learners: 1}, nil
}

// Evaluate returns the correct-classification ratio of m on d.
func Evaluate(m Model, d *Dataset) (float64, error) {
	if m == nil || d == nil || d.inner == nil {
		return 0, fmt.Errorf("%w: nil model or data", ErrBadRequest)
	}
	acc, err := eval.ClassifierAccuracy(m, d.inner)
	if err != nil {
		return 0, fmt.Errorf("ppml: %w", err)
	}
	return acc, nil
}

// Option configures Train.
type Option func(*options)

type options struct {
	cfg               consensus.Config
	learners          int
	partitionSeed     int64
	dpEpsilon         float64
	secureStandardize bool
}

func defaultOptions() options {
	return options{
		cfg: consensus.Config{
			C:             50,  // paper Section VI
			Rho:           100, // paper Section VI
			MaxIterations: 100,
		},
		learners:      4, // paper Section VI
		partitionSeed: 1,
	}
}

// WithC sets the slack penalty C (default 50, as in the paper).
func WithC(c float64) Option { return func(o *options) { o.cfg.C = c } }

// WithRho sets the ADMM penalty ρ (default 100, as in the paper). High ρ
// emphasizes consensus speed over margin width (Section VI).
func WithRho(rho float64) Option { return func(o *options) { o.cfg.Rho = rho } }

// WithIterations caps the consensus rounds (default 100).
func WithIterations(n int) Option { return func(o *options) { o.cfg.MaxIterations = n } }

// WithTolerance stops early once ‖z_{t+1} − z_t‖² < tol (default: run the
// full iteration budget, like the paper's experiments).
func WithTolerance(tol float64) Option { return func(o *options) { o.cfg.Tol = tol } }

// WithLearners sets the number of collaborating organizations M (default 4).
func WithLearners(m int) Option { return func(o *options) { o.learners = m } }

// WithKernel selects the kernel for the nonlinear schemes.
func WithKernel(k Kernel) Option { return func(o *options) { o.cfg.Kernel = k.k } }

// WithLandmarks sets the size l of the reduced consensus space used by
// HorizontalKernel (default 20). More landmarks approximate the full RKHS
// consensus better at higher cost (Lemma 4.4).
func WithLandmarks(l int) Option { return func(o *options) { o.cfg.Landmarks = l } }

// WithSeed fixes the partitioning and landmark randomness (default 1).
func WithSeed(seed int64) Option {
	return func(o *options) {
		o.partitionSeed = seed
		o.cfg.Seed = seed
	}
}

// WithEvalSet records accuracy on d after every iteration into
// Result.History.Accuracy (the data behind Fig. 4(e)–(h)).
func WithEvalSet(d *Dataset) Option {
	return func(o *options) {
		if d != nil {
			o.cfg.EvalSet = d.inner
		}
	}
}

// WithDistributed runs Mappers and Reducer as separate simulated nodes
// exchanging real messages, with the Section V secure summation protocol at
// the Reducer. Without it the trainers compute identical iterates in
// process.
func WithDistributed() Option { return func(o *options) { o.cfg.Distributed = true } }

// WithPlainAggregation disables masking in distributed mode: the Reducer
// sees raw local iterates. No privacy — provided for overhead comparisons.
func WithPlainAggregation() Option {
	return func(o *options) { o.cfg.Aggregation = mapreduce.AggregationPlain }
}

// WithStragglerTimeout enables elastic rounds in distributed mode (and
// implies WithDistributed): a learner that has not answered within d is
// demoted for the round instead of stalling the job, the consensus step
// scales to the live roster, and the straggler rejoins once it catches up.
// See DESIGN.md §14.
func WithStragglerTimeout(d time.Duration) Option {
	return func(o *options) {
		o.cfg.Distributed = true
		o.cfg.StragglerTimeout = d
	}
}

// WithMinQuorum sets the smallest live roster an elastic round will fold;
// below it training fails rather than continuing on too few learners.
// Default: 2 under masked aggregation, 1 otherwise. Only meaningful together
// with WithStragglerTimeout.
func WithMinQuorum(n int) Option {
	return func(o *options) { o.cfg.MinQuorum = n }
}

// WithPerRoundMasks selects the paper's literal Section V masking in
// distributed mode: fresh pairwise masks are exchanged every round, hiding
// each share information-theoretically at O(M²) messages per round. The
// default is seed-derived masking — one pairwise seed exchange per session,
// per-round masks expanded locally by an AES-CTR PRG — which computes
// identical iterates with O(M) messages per round under a computational
// (PRF) hiding argument. Per-round masks are exchanged over the fixed cohort,
// so they run strict rounds only: Train refuses them together with
// WithStragglerTimeout. See DESIGN.md §10 for when each mode is the right
// choice.
func WithPerRoundMasks() Option {
	return func(o *options) { o.cfg.MaskMode = mapreduce.MaskPerRound }
}

// WithTCP runs distributed training over loopback TCP sockets instead of
// in-process channels.
func WithTCP() Option {
	return func(o *options) {
		o.cfg.Distributed = true
		o.cfg.Network = transport.NewTCP()
	}
}

// WithSecureStandardization standardizes features as part of training
// WITHOUT pooling data or statistics: each learner contributes its local
// (count, sum, sum-of-squares) through one secure-summation round, only the
// global moments are reconstructed, and each learner scales its partition
// locally. Supported by the horizontal schemes (vertical learners own whole
// columns and can standardize them locally anyway). The evaluation set, when
// given, is scaled with the same statistics. Result.Scaler carries the
// fitted scaler.
//
// Use this instead of the centralized Standardize when even per-learner
// feature distributions must stay private.
func WithSecureStandardization() Option {
	return func(o *options) { o.secureStandardize = true }
}

// WithDPOutput releases the trained model with ε-differential privacy by
// output perturbation (Chaudhuri–Monteleoni, discussed in the paper's
// related work): isotropic noise with Gamma-distributed norm calibrated to
// the SVM minimizer's sensitivity 2C is added to the final linear model.
// Smaller ε gives stronger privacy and lower accuracy. Only the linear
// schemes support it; kernel schemes return an error.
//
// This composes with — not replaces — the secure summation protocol: the
// masks hide learners' iterates during training, the DP noise bounds what
// the released model itself leaks about any single record.
func WithDPOutput(epsilon float64) Option {
	return func(o *options) { o.dpEpsilon = epsilon }
}

// WithMinibatch sets the row-chunk size of every local solve, in all four
// schemes: each round a learner solves its sub-problem over one chunk of at
// most rows samples, visiting chunks in a deterministic seeded permutation
// re-drawn every epoch, so a round costs O(chunk) instead of O(partition).
// In the horizontal schemes every chunk is a virtual consensus learner with
// its own ADMM dual and warm-started QP state, and the job converges to the
// same consensus boundary; the vertical schemes run block-coordinate updates
// on the chunk's coordinates of the shared score vector, Reducer included
// (not combinable with WithStaleness). Zero, the default, means all rows —
// the paper's full-batch iteration is the schedule with one chunk — and so
// does any size that is at least a learner's row count. Only
// horizontal-linear also has a streamed trainer (internal/consensus, over dfs
// row files), so only its partitions need not fit in memory. See DESIGN.md §15.
func WithMinibatch(rows int) Option {
	return func(o *options) { o.cfg.ChunkRows = rows }
}

// WithStaleness enables bounded-staleness rounds in distributed elastic mode
// (implies WithDistributed; requires WithStragglerTimeout): each learner runs
// its local solve on a background worker and answers round t with its newest
// finished contribution, up to s rounds old, scaled by decay^staleness. The
// Reducer renormalizes by the total staleness weight, so slow-but-alive
// learners blend into the consensus instead of stalling every round. A
// learner more than s rounds behind blocks until it catches up — bounded
// staleness degrades to synchronous, never to unbounded drift. See
// DESIGN.md §15.
func WithStaleness(s int) Option {
	return func(o *options) {
		o.cfg.Distributed = true
		o.cfg.Staleness = s
	}
}

// WithStalenessDecay sets κ ∈ (0, 1], the per-round weight decay applied to
// stale contributions under WithStaleness (default 0.5): a share s rounds old
// enters the consensus with weight κ^s.
func WithStalenessDecay(k float64) Option {
	return func(o *options) { o.cfg.StalenessDecay = k }
}

// WithPaperSplit (HorizontalLinear only) reproduces the paper's printed
// Gauss-Seidel (w, b) update with the lagged equality constraint of eq. (12)
// instead of the provably convergent joint update. See DESIGN.md for why the
// printed form freezes the bias.
func WithPaperSplit() Option { return func(o *options) { o.cfg.PaperSplit = true } }

// Kernel is a similarity function for the nonlinear schemes.
type Kernel struct{ k kernel.Kernel }

// LinearKernel returns K(x, y) = ⟨x, y⟩.
func LinearKernel() Kernel { return Kernel{kernel.Linear{}} }

// RBFKernel returns the Gaussian kernel K(x, y) = exp(−γ‖x−y‖²).
func RBFKernel(gamma float64) Kernel { return Kernel{kernel.RBF{Gamma: gamma}} }

// PolynomialKernel returns K(x, y) = (a⟨x, y⟩ + b)^degree.
func PolynomialKernel(a, b float64, degree int) Kernel {
	return Kernel{kernel.Polynomial{A: a, B: b, Degree: degree}}
}

// SigmoidKernel returns K(x, y) = tanh(a⟨x, y⟩ + c).
func SigmoidKernel(a, c float64) Kernel { return Kernel{kernel.Sigmoid{A: a, C: c}} }

// ensure the internal models satisfy the public Model interface.
var (
	_ Model           = (*consensus.LinearModel)(nil)
	_ Model           = (*consensus.KernelHorizontalModel)(nil)
	_ Model           = (*consensus.KernelVerticalModel)(nil)
	_ Model           = (*svm.Model)(nil)
	_ eval.Classifier = Model(nil)
)
