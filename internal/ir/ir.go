// Package ir defines the backend-neutral intermediate representation of a
// trained model that the Homunculus backend generators consume (§3.3).
// A Model captures the trained parameters (DNN layers, SVM hyperplanes,
// KMeans centroids, or a decision tree), the feature-normalization affine,
// and the fixed-point format the data plane will compute in. Backends use
// it three ways: resource estimation, code generation, and bit-accurate
// quantized inference (what the generated hardware would output).
package ir

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/fixed"
	"repro/internal/kmeans"
	"repro/internal/nn"
	"repro/internal/svm"
	"repro/internal/tensor"
)

// Kind identifies the algorithm family of a model.
type Kind int

// Algorithm families the optimization core can select (§3.2.1).
const (
	DNN Kind = iota
	SVM
	KMeans
	DTree
)

// String names the kind (the Alchemy "algorithm" strings).
func (k Kind) String() string {
	switch k {
	case DNN:
		return "dnn"
	case SVM:
		return "svm"
	case KMeans:
		return "kmeans"
	case DTree:
		return "dtree"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// KindNames lists the accepted Alchemy algorithm names, in Kind order
// ("decision_tree" is also accepted as an alias of "dtree").
func KindNames() []string {
	return []string{"dnn", "svm", "kmeans", "dtree"}
}

// ParseKind maps an Alchemy algorithm name to a Kind; an unknown name's
// error lists the accepted values so a typo in a spec is a one-glance
// fix (matching the backend registry's unknown-kind style).
func ParseKind(s string) (Kind, error) {
	switch s {
	case "dnn":
		return DNN, nil
	case "svm":
		return SVM, nil
	case "kmeans":
		return KMeans, nil
	case "dtree", "decision_tree":
		return DTree, nil
	default:
		return 0, fmt.Errorf("ir: unknown algorithm %q (accepted: %v)", s, KindNames())
	}
}

// Layer is one dense DNN layer in the IR: Out×In weights row-major by
// output neuron, plus biases, and the activation applied to the result.
type Layer struct {
	In, Out    int
	W          [][]float64 // [Out][In]
	B          []float64   // [Out]
	Activation string      // "relu", "sigmoid", "tanh", or "softmax" (output)
}

// TreeNode mirrors a CART node for backends (leaf when Feature < 0).
type TreeNode struct {
	Feature     int
	Threshold   float64
	Class       int
	Left, Right *TreeNode
}

// Depth is the number of internal-node levels on the longest root-to-leaf
// path: 0 for a leaf (or a nil tree), one table or stage per level for
// the backends.
func (n *TreeNode) Depth() int {
	if n == nil || n.Feature < 0 {
		return 0
	}
	return 1 + max(n.Left.Depth(), n.Right.Depth())
}

// SVMParams holds one-vs-rest hyperplanes.
type SVMParams struct {
	W [][]float64 // [class][feature]
	B []float64
}

// Model is the full backend-neutral representation.
type Model struct {
	Kind         Kind
	Name         string
	Inputs       int
	Outputs      int // classes (or clusters for KMeans)
	Format       fixed.Format
	FeatureNames []string
	// Normalizer, if set, is folded into the feature-extraction stage of
	// the generated pipeline.
	Mean, Std []float64

	Layers    []Layer     // DNN
	SVM       *SVMParams  // SVM
	Centroids [][]float64 // KMeans
	Tree      *TreeNode   // DTree
}

// Validate checks structural consistency.
func (m *Model) Validate() error {
	if m.Inputs <= 0 {
		return fmt.Errorf("ir: model %q has %d inputs", m.Name, m.Inputs)
	}
	if m.Outputs <= 0 {
		return fmt.Errorf("ir: model %q has %d outputs", m.Name, m.Outputs)
	}
	switch m.Kind {
	case DNN:
		if len(m.Layers) == 0 {
			return fmt.Errorf("ir: DNN %q has no layers", m.Name)
		}
		prev := m.Inputs
		for i, l := range m.Layers {
			if l.In != prev {
				return fmt.Errorf("ir: layer %d input %d, want %d", i, l.In, prev)
			}
			if len(l.W) != l.Out || len(l.B) != l.Out {
				return fmt.Errorf("ir: layer %d weight/bias shape mismatch", i)
			}
			for _, row := range l.W {
				if len(row) != l.In {
					return fmt.Errorf("ir: layer %d weight row length %d, want %d", i, len(row), l.In)
				}
			}
			prev = l.Out
		}
		if prev != m.Outputs {
			return fmt.Errorf("ir: final layer out %d, want %d outputs", prev, m.Outputs)
		}
	case SVM:
		if m.SVM == nil || len(m.SVM.W) != m.Outputs {
			return fmt.Errorf("ir: SVM %q params missing or wrong class count", m.Name)
		}
	case KMeans:
		if len(m.Centroids) != m.Outputs {
			return fmt.Errorf("ir: KMeans %q has %d centroids, want %d", m.Name, len(m.Centroids), m.Outputs)
		}
	case DTree:
		if m.Tree == nil {
			return fmt.Errorf("ir: DTree %q has no tree", m.Name)
		}
	default:
		return fmt.Errorf("ir: unknown kind %d", int(m.Kind))
	}
	return nil
}

// ParamCount returns the trainable parameter count (the "# NN Param"
// column of Table 2; weight+bias words for the data-plane memory budget).
func (m *Model) ParamCount() int {
	switch m.Kind {
	case DNN:
		total := 0
		for _, l := range m.Layers {
			total += l.In*l.Out + l.Out
		}
		return total
	case SVM:
		total := 0
		for _, w := range m.SVM.W {
			total += len(w) + 1
		}
		return total
	case KMeans:
		total := 0
		for _, c := range m.Centroids {
			total += len(c)
		}
		return total
	case DTree:
		return countNodes(m.Tree) * 2 // threshold + feature id per node
	default:
		return 0
	}
}

func countNodes(n *TreeNode) int {
	if n == nil {
		return 0
	}
	return 1 + countNodes(n.Left) + countNodes(n.Right)
}

// HiddenWidths returns the hidden layer widths of a DNN model (empty for
// other kinds) — the architecture summary reported in experiment tables.
func (m *Model) HiddenWidths() []int {
	if m.Kind != DNN || len(m.Layers) == 0 {
		return nil
	}
	widths := make([]int, 0, len(m.Layers)-1)
	for _, l := range m.Layers[:len(m.Layers)-1] {
		widths = append(widths, l.Out)
	}
	return widths
}

// FromNN converts a trained network into the IR.
func FromNN(name string, net *nn.Network, format fixed.Format) *Model {
	m := &Model{
		Kind:    DNN,
		Name:    name,
		Inputs:  net.Config.Inputs,
		Outputs: net.Config.Outputs,
		Format:  format,
	}
	for li, l := range net.Layers {
		layer := Layer{In: l.In, Out: l.Out, B: append([]float64{}, l.B...)}
		layer.W = make([][]float64, l.Out)
		for o := 0; o < l.Out; o++ {
			layer.W[o] = make([]float64, l.In)
			for i := 0; i < l.In; i++ {
				layer.W[o][i] = l.W.At(i, o) // transpose: IR is [out][in]
			}
		}
		if li == len(net.Layers)-1 {
			layer.Activation = "softmax"
		} else {
			layer.Activation = l.Act.String()
		}
		m.Layers = append(m.Layers, layer)
	}
	return m
}

// FromSVM converts a trained SVM into the IR.
func FromSVM(name string, model *svm.Model, format fixed.Format) *Model {
	p := &SVMParams{B: append([]float64{}, model.B...)}
	for _, w := range model.W {
		p.W = append(p.W, append([]float64{}, w...))
	}
	return &Model{
		Kind:    SVM,
		Name:    name,
		Inputs:  model.Config.Features,
		Outputs: model.Config.Classes,
		Format:  format,
		SVM:     p,
	}
}

// FromKMeans converts a fitted clustering into the IR.
func FromKMeans(name string, model *kmeans.Model, format fixed.Format) *Model {
	m := &Model{
		Kind:    KMeans,
		Name:    name,
		Inputs:  model.Centroids.Cols,
		Outputs: model.K(),
		Format:  format,
	}
	for k := 0; k < model.K(); k++ {
		m.Centroids = append(m.Centroids, append([]float64{}, model.Centroids.Row(k)...))
	}
	return m
}

// FromDTree converts a fitted CART tree into the IR.
func FromDTree(name string, model *dtree.Model, features int, format fixed.Format) *Model {
	return &Model{
		Kind:    DTree,
		Name:    name,
		Inputs:  features,
		Outputs: model.Config.Classes,
		Format:  format,
		Tree:    convertTree(model.Root),
	}
}

func convertTree(n *dtree.Node) *TreeNode {
	if n == nil {
		return nil
	}
	return &TreeNode{
		Feature:   n.Feature,
		Threshold: n.Threshold,
		Class:     n.Class,
		Left:      convertTree(n.Left),
		Right:     convertTree(n.Right),
	}
}

// WithNormalizer attaches feature standardization to the pipeline.
func (m *Model) WithNormalizer(norm *dataset.Normalizer) *Model {
	m.Mean = append([]float64{}, norm.Mean...)
	m.Std = append([]float64{}, norm.Std...)
	return m
}

// normalizeQ applies the baked-in normalizer (if any) in float, returning
// the vector the quantizer will see. Data planes implement this as a
// shift-and-scale in the feature-extraction stage before quantization.
func (m *Model) normalize(x []float64) []float64 {
	out := append([]float64{}, x...)
	if len(m.Mean) == len(out) {
		for i := range out {
			out[i] = (out[i] - m.Mean[i]) / m.Std[i]
		}
	}
	return out
}

// Infer runs float inference (reference semantics, used for testing the
// quantized path against).
func (m *Model) Infer(x []float64) (int, error) {
	if len(x) != m.Inputs {
		return 0, fmt.Errorf("ir: input has %d features, model %q wants %d", len(x), m.Name, m.Inputs)
	}
	v := m.normalize(x)
	switch m.Kind {
	case DNN:
		for _, l := range m.Layers {
			next := make([]float64, l.Out)
			for o := 0; o < l.Out; o++ {
				next[o] = tensor.Dot(l.W[o], v) + l.B[o]
			}
			applyAct(next, l.Activation)
			v = next
		}
		return tensor.ArgMax(v), nil
	case SVM:
		scores := make([]float64, m.Outputs)
		for k := range scores {
			scores[k] = tensor.Dot(m.SVM.W[k], v) + m.SVM.B[k]
		}
		return tensor.ArgMax(scores), nil
	case KMeans:
		best, bi := -1.0, 0
		for k, c := range m.Centroids {
			d := tensor.SqDist(v, c)
			if best < 0 || d < best {
				best, bi = d, k
			}
		}
		return bi, nil
	case DTree:
		n := m.Tree
		for n.Feature >= 0 {
			if v[n.Feature] <= n.Threshold {
				n = n.Left
			} else {
				n = n.Right
			}
		}
		return n.Class, nil
	default:
		return 0, fmt.Errorf("ir: cannot infer kind %d", int(m.Kind))
	}
}

func applyAct(v []float64, act string) {
	switch act {
	case "relu":
		for i := range v {
			if v[i] < 0 {
				v[i] = 0
			}
		}
	case "sigmoid":
		for i := range v {
			v[i] = 1 / (1 + exp(-v[i]))
		}
	case "tanh":
		for i := range v {
			v[i] = tanh(v[i])
		}
	case "softmax":
		// arg-max is invariant to softmax; data planes skip it entirely.
	}
}

// InferQ runs bit-accurate fixed-point inference in the model's Format —
// the exact arithmetic the generated Taurus/FPGA pipeline performs.
// Non-linear activations use the same piecewise approximations the
// hardware templates emit.
func (m *Model) InferQ(x []float64) (int, error) {
	if len(x) != m.Inputs {
		return 0, fmt.Errorf("ir: input has %d features, model %q wants %d", len(x), m.Name, m.Inputs)
	}
	f := m.Format
	v := f.QuantizeVec(m.normalize(x))
	switch m.Kind {
	case DNN:
		for _, l := range m.Layers {
			next := make([]int32, l.Out)
			for o := 0; o < l.Out; o++ {
				wq := f.QuantizeVec(l.W[o])
				acc := f.DotQ(wq, v)
				acc = f.Add(acc, f.Quantize(l.B[o]))
				switch l.Activation {
				case "relu":
					acc = fixed.ReLUQ(acc)
				case "sigmoid":
					acc = f.SigmoidQ(acc)
				case "tanh":
					// PWL tanh: clamp(x) in [-1, 1]
					one := f.Quantize(1)
					if acc > one {
						acc = one
					}
					if acc < -one {
						acc = -one
					}
				}
				next[o] = acc
			}
			v = next
		}
		return argMaxQ(v), nil
	case SVM:
		scores := make([]int32, m.Outputs)
		for k := range scores {
			wq := f.QuantizeVec(m.SVM.W[k])
			scores[k] = f.Add(f.DotQ(wq, v), f.Quantize(m.SVM.B[k]))
		}
		return argMaxQ(scores), nil
	case KMeans:
		bestK, bestD := 0, int64(-1)
		for k, c := range m.Centroids {
			cq := f.QuantizeVec(c)
			var d int64
			for i := range cq {
				diff := int64(v[i]) - int64(cq[i])
				d += diff * diff
			}
			if bestD < 0 || d < bestD {
				bestD, bestK = d, k
			}
		}
		return bestK, nil
	case DTree:
		n := m.Tree
		for n.Feature >= 0 {
			if v[n.Feature] <= f.Quantize(n.Threshold) {
				n = n.Left
			} else {
				n = n.Right
			}
		}
		return n.Class, nil
	default:
		return 0, fmt.Errorf("ir: cannot infer kind %d", int(m.Kind))
	}
}

func argMaxQ(v []int32) int {
	best, bi := v[0], 0
	for i, x := range v {
		if x > best {
			best, bi = x, i
		}
	}
	return bi
}

// ScoresQ runs quantized inference and returns the per-output scores
// (dequantized): decision values for DNN/SVM, negated squared distances
// for KMeans (so arg-max semantics hold), and a one-hot for trees. The
// composition executor uses these as the values an IOMap transforms.
func (m *Model) ScoresQ(x []float64) ([]float64, error) {
	if len(x) != m.Inputs {
		return nil, fmt.Errorf("ir: input has %d features, model %q wants %d", len(x), m.Name, m.Inputs)
	}
	f := m.Format
	v := f.QuantizeVec(m.normalize(x))
	switch m.Kind {
	case DNN:
		for _, l := range m.Layers {
			next := make([]int32, l.Out)
			for o := 0; o < l.Out; o++ {
				wq := f.QuantizeVec(l.W[o])
				acc := f.Add(f.DotQ(wq, v), f.Quantize(l.B[o]))
				switch l.Activation {
				case "relu":
					acc = fixed.ReLUQ(acc)
				case "sigmoid":
					acc = f.SigmoidQ(acc)
				case "tanh":
					one := f.Quantize(1)
					if acc > one {
						acc = one
					}
					if acc < -one {
						acc = -one
					}
				}
				next[o] = acc
			}
			v = next
		}
		return f.DequantizeVec(v), nil
	case SVM:
		out := make([]float64, m.Outputs)
		for k := range out {
			wq := f.QuantizeVec(m.SVM.W[k])
			out[k] = f.Dequantize(f.Add(f.DotQ(wq, v), f.Quantize(m.SVM.B[k])))
		}
		return out, nil
	case KMeans:
		out := make([]float64, m.Outputs)
		for k, c := range m.Centroids {
			cq := f.QuantizeVec(c)
			var d int64
			for i := range cq {
				diff := int64(v[i]) - int64(cq[i])
				d += diff * diff
			}
			out[k] = -float64(d)
		}
		return out, nil
	case DTree:
		class, err := m.InferQ(x)
		if err != nil {
			return nil, err
		}
		out := make([]float64, m.Outputs)
		if class >= 0 && class < m.Outputs {
			out[class] = 1
		}
		return out, nil
	default:
		return nil, fmt.Errorf("ir: cannot score kind %d", int(m.Kind))
	}
}

// PredictQ classifies every sample of d with quantized inference. It
// rides the prepared Predictor fast path: parameters are quantized once
// and every row streams through reusable buffers (InferQ re-quantizes
// the weights per input, which dominates scoring during search). The
// per-element operation order is identical to InferQ, so predictions
// match bit-for-bit. The deployment runtime (internal/serve) uses the
// same Predictor per shard to serve live traffic.
func (m *Model) PredictQ(d *dataset.Dataset) ([]int, error) {
	p, err := NewPredictor(m)
	if err != nil {
		return nil, err
	}
	out := make([]int, d.Len())
	if err := p.PredictDataset(d, out); err != nil {
		return nil, err
	}
	return out, nil
}

func exp(x float64) float64  { return math.Exp(x) }
func tanh(x float64) float64 { return math.Tanh(x) }
