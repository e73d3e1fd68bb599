package ppml

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"github.com/ppml-go/ppml/internal/consensus"
	"github.com/ppml-go/ppml/internal/kernel"
	"github.com/ppml-go/ppml/internal/linalg"
	"github.com/ppml-go/ppml/internal/svm"
)

// ErrBadModel indicates an unrecognized or corrupt serialized model.
var ErrBadModel = errors.New("ppml: bad model")

// modelEnvelope is the on-disk framing: a type tag plus the type-specific
// payload. The format is versioned so future layouts can coexist.
type modelEnvelope struct {
	Version int             `json:"version"`
	Type    string          `json:"type"`
	Payload json.RawMessage `json:"payload"`
	// Scaler is the feature standardization the model was trained under,
	// when saved with SaveModelWithScaler.
	Scaler *Scaler `json:"scaler,omitempty"`
}

const modelVersion = 1

// Serialized payloads. Matrices serialize through linalg.Matrix's exported
// row-major layout.
type linearModelJSON struct {
	W []float64 `json:"w"`
	B float64   `json:"b"`
}

type kernelHorizontalModelJSON struct {
	Kernel    string           `json:"kernel"`
	Landmarks *linalg.Matrix   `json:"landmarks"`
	SupportX  []*linalg.Matrix `json:"supportX"`
	CoefX     [][]float64      `json:"coefX"`
	CoefG     [][]float64      `json:"coefG"`
	B         []float64        `json:"b"`
}

type kernelVerticalModelJSON struct {
	Kernel   string           `json:"kernel"`
	Cols     [][]int          `json:"cols"`
	SupportX []*linalg.Matrix `json:"supportX"`
	Alpha    [][]float64      `json:"alpha"`
	B        float64          `json:"b"`
}

type logisticModelJSON struct {
	W []float64 `json:"w"`
	B float64   `json:"b"`
}

type naiveBayesModelJSON struct {
	PriorPos float64   `json:"priorPos"`
	MeanPos  []float64 `json:"meanPos"`
	VarPos   []float64 `json:"varPos"`
	MeanNeg  []float64 `json:"meanNeg"`
	VarNeg   []float64 `json:"varNeg"`
}

type svmModelJSON struct {
	Kernel   string         `json:"kernel"`
	SupportX *linalg.Matrix `json:"supportX"`
	Coef     []float64      `json:"coef"`
	B        float64        `json:"b"`
	W        []float64      `json:"w,omitempty"`
}

// SaveModelWithScaler writes a trained model to w as versioned JSON, together
// with the feature scaler it was trained under (from Standardize), so loaded
// models can standardize new inputs consistently. Every model produced by
// Train and TrainCentralized is supported. scaler may be nil.
func SaveModelWithScaler(w io.Writer, m Model, scaler *Scaler) error {
	env := modelEnvelope{Version: modelVersion, Scaler: scaler}
	var payload any
	switch mm := m.(type) {
	case *consensus.LinearModel:
		env.Type = "linear"
		payload = linearModelJSON{W: mm.W, B: mm.B}
	case *consensus.LogisticModel:
		env.Type = "logistic"
		payload = logisticModelJSON{W: mm.W, B: mm.B}
	case *consensus.NaiveBayesModel:
		env.Type = "naive-bayes"
		payload = naiveBayesModelJSON{
			PriorPos: mm.PriorPos,
			MeanPos:  mm.MeanPos, VarPos: mm.VarPos,
			MeanNeg: mm.MeanNeg, VarNeg: mm.VarNeg,
		}
	case *consensus.KernelHorizontalModel:
		spec, err := kernel.Spec(mm.Kernel)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		env.Type = "kernel-horizontal"
		payload = kernelHorizontalModelJSON{
			Kernel: spec, Landmarks: mm.Landmarks,
			SupportX: mm.SupportX, CoefX: mm.CoefX, CoefG: mm.CoefG, B: mm.B,
		}
	case *consensus.KernelVerticalModel:
		spec, err := kernel.Spec(mm.Kernel)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		env.Type = "kernel-vertical"
		payload = kernelVerticalModelJSON{
			Kernel: spec, Cols: mm.Cols, SupportX: mm.SupportX,
			Alpha: mm.Alpha, B: mm.B,
		}
	case *svm.Model:
		spec, err := kernel.Spec(mm.Kernel)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		env.Type = "svm"
		payload = svmModelJSON{
			Kernel: spec, SupportX: mm.SupportX, Coef: mm.Coef, B: mm.B, W: mm.W,
		}
	default:
		return fmt.Errorf("%w: cannot serialize %T", ErrBadModel, m)
	}
	raw, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("ppml: marshal model: %w", err)
	}
	env.Payload = raw
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(env); err != nil {
		return fmt.Errorf("ppml: write model: %w", err)
	}
	return nil
}

// LoadModelWithScaler reads a model written by SaveModelWithScaler and, when
// present, the feature scaler it was saved with (nil otherwise). A file whose
// shapes do not fit together — a matrix whose data is not rows × cols, a
// coefficient vector that does not match its support rows or landmarks, a
// column map that is not a permutation of the sample's features, a scaler
// deviation that is not positive — is ErrBadModel, so a loaded model scores
// without panicking or dividing by zero.
func LoadModelWithScaler(r io.Reader) (Model, *Scaler, error) {
	var env modelEnvelope
	if err := json.NewDecoder(r).Decode(&env); err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrBadModel, err)
	}
	if env.Version != modelVersion {
		return nil, nil, fmt.Errorf("%w: unsupported version %d", ErrBadModel, env.Version)
	}
	m, err := decodeModel(env)
	if err != nil {
		return nil, nil, err
	}
	return m, env.Scaler, nil
}

// decodeModel reconstructs the concrete model from a decoded envelope.
func decodeModel(env modelEnvelope) (Model, error) {
	switch env.Type {
	case "linear":
		var p linearModelJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		return &consensus.LinearModel{W: p.W, B: p.B}, nil
	case "logistic":
		var p logisticModelJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		return &consensus.LogisticModel{W: p.W, B: p.B}, nil
	case "naive-bayes":
		var p naiveBayesModelJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		k := len(p.MeanPos)
		if len(p.VarPos) != k || len(p.MeanNeg) != k || len(p.VarNeg) != k ||
			p.PriorPos <= 0 || p.PriorPos >= 1 {
			return nil, fmt.Errorf("%w: inconsistent naive-bayes payload", ErrBadModel)
		}
		return &consensus.NaiveBayesModel{
			PriorPos: p.PriorPos,
			MeanPos:  p.MeanPos, VarPos: p.VarPos,
			MeanNeg: p.MeanNeg, VarNeg: p.VarNeg,
		}, nil
	case "kernel-horizontal":
		var p kernelHorizontalModelJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		k, err := kernel.Parse(p.Kernel)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		if len(p.SupportX) != len(p.CoefX) || len(p.CoefX) != len(p.CoefG) || len(p.CoefG) != len(p.B) || len(p.B) == 0 {
			return nil, fmt.Errorf("%w: inconsistent learner counts", ErrBadModel)
		}
		if err := checkMatrix(p.Landmarks, "landmarks"); err != nil {
			return nil, err
		}
		for m, sx := range p.SupportX {
			if err := checkMatrix(sx, fmt.Sprintf("learner %d's support rows", m)); err != nil {
				return nil, err
			}
			if sx.Cols != p.Landmarks.Cols || len(p.CoefX[m]) != sx.Rows || len(p.CoefG[m]) != p.Landmarks.Rows {
				return nil, fmt.Errorf("%w: learner %d has %d×%d support rows, %d coefX and %d coefG for %d×%d landmarks",
					ErrBadModel, m, sx.Rows, sx.Cols, len(p.CoefX[m]), len(p.CoefG[m]), p.Landmarks.Rows, p.Landmarks.Cols)
			}
		}
		return &consensus.KernelHorizontalModel{
			Kernel: k, Landmarks: p.Landmarks,
			SupportX: p.SupportX, CoefX: p.CoefX, CoefG: p.CoefG, B: p.B,
		}, nil
	case "kernel-vertical":
		var p kernelVerticalModelJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		k, err := kernel.Parse(p.Kernel)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		if len(p.SupportX) != len(p.Alpha) || len(p.Alpha) != len(p.Cols) || len(p.Cols) == 0 {
			return nil, fmt.Errorf("%w: inconsistent learner counts", ErrBadModel)
		}
		width := 0
		for _, cols := range p.Cols {
			width += len(cols)
		}
		owned := make([]bool, width)
		for m, sx := range p.SupportX {
			if err := checkMatrix(sx, fmt.Sprintf("learner %d's support rows", m)); err != nil {
				return nil, err
			}
			if sx.Cols != len(p.Cols[m]) || len(p.Alpha[m]) != sx.Rows {
				return nil, fmt.Errorf("%w: learner %d has %d×%d support rows, %d columns and %d alpha",
					ErrBadModel, m, sx.Rows, sx.Cols, len(p.Cols[m]), len(p.Alpha[m]))
			}
			for _, c := range p.Cols[m] {
				if c < 0 || c >= width || owned[c] {
					return nil, fmt.Errorf("%w: learner %d's column %d is outside 0..%d or owned twice", ErrBadModel, m, c, width-1)
				}
				owned[c] = true
			}
		}
		return &consensus.KernelVerticalModel{
			Kernel: k, Cols: p.Cols, SupportX: p.SupportX, Alpha: p.Alpha, B: p.B,
		}, nil
	case "svm":
		var p svmModelJSON
		if err := json.Unmarshal(env.Payload, &p); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		k, err := kernel.Parse(p.Kernel)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadModel, err)
		}
		if err := checkMatrix(p.SupportX, "support vectors"); err != nil {
			return nil, err
		}
		if len(p.Coef) != p.SupportX.Rows || (p.W != nil && len(p.W) != p.SupportX.Cols) {
			return nil, fmt.Errorf("%w: %d×%d support vectors with %d coef and %d w",
				ErrBadModel, p.SupportX.Rows, p.SupportX.Cols, len(p.Coef), len(p.W))
		}
		return &svm.Model{
			Kernel: k, SupportX: p.SupportX, Coef: p.Coef, B: p.B, W: p.W,
			SupportCount: len(p.Coef),
		}, nil
	default:
		return nil, fmt.Errorf("%w: unknown model type %q", ErrBadModel, env.Type)
	}
}

// checkMatrix reports a nil matrix, one with no columns, and one whose Data
// does not hold exactly Rows·Cols values.
func checkMatrix(m *linalg.Matrix, what string) error {
	if m == nil {
		return fmt.Errorf("%w: no %s", ErrBadModel, what)
	}
	if m.Rows < 0 || m.Cols < 1 || m.Rows > len(m.Data)/m.Cols || len(m.Data) != m.Rows*m.Cols {
		return fmt.Errorf("%w: %s are %d×%d with %d values", ErrBadModel, what, m.Rows, m.Cols, len(m.Data))
	}
	return nil
}
