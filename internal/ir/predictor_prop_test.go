package ir

// Property test for the flat branchless predictors: fuzzed models of
// every algorithm family, driven with fuzzed (and adversarial) inputs,
// must classify bit-identically to the Model.InferQ reference. This is
// the serving-path half of the PR1 invariant — the flat layouts
// (row-major weights, enum activations, index-linked trees with
// pre-quantized thresholds, the fused normalize+quantize sweep) are pure
// layout changes, and this test is what pins that claim down.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
)

var propFormats = []fixed.Format{fixed.Q8_8, fixed.Q4_12, fixed.Q16_16}

var propActivations = []string{"relu", "sigmoid", "tanh", "softmax", ""}

// fuzzInput mixes typical values with adversarial ones: saturating
// magnitudes, exact zeros, NaN (quantizes to 0), and infinities
// (saturate at the format bounds).
func fuzzInput(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch rng.Intn(10) {
		case 0:
			x[i] = 0
		case 1:
			x[i] = float64(rng.Intn(2000)-1000) * 10 // saturation territory
		case 2:
			x[i] = math.NaN()
		case 3:
			x[i] = math.Inf(1 - 2*rng.Intn(2))
		default:
			x[i] = rng.NormFloat64() * 3
		}
	}
	return x
}

func fuzzNormalizer(rng *rand.Rand, m *Model) {
	if rng.Intn(2) == 0 {
		return
	}
	m.Mean = make([]float64, m.Inputs)
	m.Std = make([]float64, m.Inputs)
	for i := range m.Mean {
		m.Mean[i] = rng.NormFloat64()
		m.Std[i] = 0.25 + rng.Float64()*4 // strictly positive
	}
}

func fuzzDNN(rng *rand.Rand) *Model {
	inputs := 1 + rng.Intn(12)
	outputs := 2 + rng.Intn(5)
	layers := 1 + rng.Intn(3)
	m := &Model{
		Kind: DNN, Name: "fuzz-dnn", Inputs: inputs, Outputs: outputs,
		Format: propFormats[rng.Intn(len(propFormats))],
	}
	prev := inputs
	for li := 0; li < layers; li++ {
		out := 1 + rng.Intn(14)
		if li == layers-1 {
			out = outputs
		}
		l := Layer{
			In: prev, Out: out,
			W:          make([][]float64, out),
			B:          make([]float64, out),
			Activation: propActivations[rng.Intn(len(propActivations))],
		}
		for o := range l.W {
			l.W[o] = make([]float64, prev)
			for i := range l.W[o] {
				l.W[o][i] = rng.NormFloat64()
			}
			l.B[o] = rng.NormFloat64()
		}
		m.Layers = append(m.Layers, l)
		prev = out
	}
	fuzzNormalizer(rng, m)
	return m
}

func fuzzSVM(rng *rand.Rand) *Model {
	inputs := 1 + rng.Intn(12)
	outputs := 2 + rng.Intn(6)
	m := &Model{
		Kind: SVM, Name: "fuzz-svm", Inputs: inputs, Outputs: outputs,
		Format: propFormats[rng.Intn(len(propFormats))],
		SVM:    &SVMParams{W: make([][]float64, outputs), B: make([]float64, outputs)},
	}
	for k := range m.SVM.W {
		m.SVM.W[k] = make([]float64, inputs)
		for i := range m.SVM.W[k] {
			m.SVM.W[k][i] = rng.NormFloat64()
		}
		m.SVM.B[k] = rng.NormFloat64()
	}
	fuzzNormalizer(rng, m)
	return m
}

func fuzzKMeans(rng *rand.Rand) *Model {
	inputs := 1 + rng.Intn(12)
	outputs := 2 + rng.Intn(7)
	m := &Model{
		Kind: KMeans, Name: "fuzz-kmeans", Inputs: inputs, Outputs: outputs,
		Format:    propFormats[rng.Intn(len(propFormats))],
		Centroids: make([][]float64, outputs),
	}
	for k := range m.Centroids {
		m.Centroids[k] = make([]float64, inputs)
		for i := range m.Centroids[k] {
			m.Centroids[k][i] = rng.NormFloat64() * 2
		}
	}
	fuzzNormalizer(rng, m)
	return m
}

func fuzzTree(rng *rand.Rand, inputs, classes, depth int) *TreeNode {
	if depth <= 0 || rng.Intn(4) == 0 {
		return &TreeNode{Feature: -1, Class: rng.Intn(classes)}
	}
	return &TreeNode{
		Feature:   rng.Intn(inputs),
		Threshold: rng.NormFloat64() * 2,
		Left:      fuzzTree(rng, inputs, classes, depth-1),
		Right:     fuzzTree(rng, inputs, classes, depth-1),
	}
}

func fuzzDTree(rng *rand.Rand) *Model {
	inputs := 1 + rng.Intn(12)
	outputs := 2 + rng.Intn(5)
	m := &Model{
		Kind: DTree, Name: "fuzz-dtree", Inputs: inputs, Outputs: outputs,
		Format: propFormats[rng.Intn(len(propFormats))],
		Tree:   fuzzTree(rng, inputs, outputs, 1+rng.Intn(8)),
	}
	fuzzNormalizer(rng, m)
	return m
}

// TestPredictorMatchesInferQFuzzed is the bit-identity property test:
// for every fuzzed model and input, the flat predictor and the reference
// interpreter must agree exactly — same class, same error disposition.
// Two deterministic sweeps follow the fuzzed families: the blocked dense
// layer's edges and the quantizer's rounding midpoints.
func TestPredictorMatchesInferQFuzzed(t *testing.T) {
	gens := map[string]func(*rand.Rand) *Model{
		"dnn":    fuzzDNN,
		"svm":    fuzzSVM,
		"kmeans": fuzzKMeans,
		"dtree":  fuzzDTree,
	}
	for name, gen := range gens {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			for trial := 0; trial < 60; trial++ {
				m := gen(rng)
				p := mustPredictor(t, m)
				for q := 0; q < 40; q++ {
					agreeInferQ(t, m, p, fuzzInput(rng, m.Inputs))
				}
				// Wrong-length inputs must error on both paths.
				bad := make([]float64, m.Inputs+1)
				if _, err := p.Classify(bad); err == nil {
					t.Fatalf("trial %d: wrong-length input must error", trial)
				}
			}
		})
	}
	// The blocked dense layer's edges, which random widths and normal
	// weights rarely reach: every out mod 4 tail, a single input, every
	// activation, and parameters at the format's extreme raw words driven
	// with ±Inf. In Q16_16 those products are near 2^62, so the wide sums
	// wrap, and only associativity mod 2^64 keeps a blocked sum equal to
	// DotQ's.
	t.Run("dense-edges", func(t *testing.T) {
		rng := rand.New(rand.NewSource(38))
		for _, f := range propFormats {
			for _, act := range propActivations {
				for out := 1; out <= 9; out++ {
					for _, in := range []int{1, 2, 3, 7} {
						for _, m := range edgeModels(rng, f, act, in, out) {
							p := mustPredictor(t, m)
							for _, x := range edgeInputs(rng, in) {
								agreeInferQ(t, m, p, x)
							}
						}
					}
				}
			}
		}
	})
	// The quantizer at its rounding midpoints: x/std lands on, or an ulp
	// beside, (k+½)·2^-frac, where a reciprocal multiply in place of the
	// divide rounds the other way. The model makes the class the rounding
	// direction: neuron 0 is the constant k, neuron 1 the quantized input.
	t.Run("quantizer-midpoints", func(t *testing.T) {
		for _, f := range propFormats {
			scale := math.Ldexp(1, f.FracBits)
			for _, std := range []float64{3, 7, 0.3, 1.1, 10.0 / 3} {
				for k := -100; k < 100; k++ {
					m := &Model{Kind: DNN, Name: "midpoint", Inputs: 1, Outputs: 2, Format: f,
						Mean: []float64{0}, Std: []float64{std},
						Layers: []Layer{{In: 1, Out: 2, W: [][]float64{{0}, {1}}, B: []float64{float64(k) / scale, 0}}},
					}
					p := mustPredictor(t, m)
					x := (float64(k) + 0.5) / scale * std
					for _, v := range []float64{x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1))} {
						agreeInferQ(t, m, p, []float64{v})
					}
				}
			}
		}
	})
}

func mustPredictor(t *testing.T, m *Model) *Predictor {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatalf("generator produced invalid model: %v", err)
	}
	p, err := NewPredictor(m)
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	return p
}

// agreeInferQ requires p.Classify(x) to equal m.InferQ(x): same class,
// same error disposition.
func agreeInferQ(t *testing.T, m *Model, p *Predictor, x []float64) {
	t.Helper()
	want, werr := m.InferQ(x)
	got, gerr := p.Classify(x)
	if (werr == nil) != (gerr == nil) {
		t.Fatalf("%s: error mismatch: InferQ=%v Predictor=%v", m.Name, werr, gerr)
	}
	if werr == nil && got != want {
		t.Fatalf("%s: Predictor=%d InferQ=%d (format %v, x=%v)", m.Name, got, want, m.Format, x)
	}
}

// edgeParam is a weight or bias for the edge sweep: the format's largest
// or smallest value, or an ordinary one.
func edgeParam(rng *rand.Rand, f fixed.Format) float64 {
	switch rng.Intn(3) {
	case 0:
		return f.Max()
	case 1:
		return f.Min()
	}
	return rng.NormFloat64()
}

func edgeRows(rng *rand.Rand, f fixed.Format, in, out int) ([][]float64, []float64) {
	w, b := make([][]float64, out), make([]float64, out)
	for o := range w {
		w[o] = make([]float64, in)
		for i := range w[o] {
			w[o][i] = edgeParam(rng, f)
		}
		b[o] = edgeParam(rng, f)
	}
	return w, b
}

// edgeModels builds the dense models of the edge sweep for one layer
// shape in→out: the layer as a DNN's head, so its outputs are the
// classes; the layer feeding a second blocked layer of three neurons (a
// pair and a single); and an SVM with out hyperplanes.
func edgeModels(rng *rand.Rand, f fixed.Format, act string, in, out int) []*Model {
	layer := func(in, out int, act string) Layer {
		w, b := edgeRows(rng, f, in, out)
		return Layer{In: in, Out: out, W: w, B: b, Activation: act}
	}
	head := &Model{Kind: DNN, Name: "edge-head", Inputs: in, Outputs: out, Format: f,
		Layers: []Layer{layer(in, out, act)}}
	hidden := &Model{Kind: DNN, Name: "edge-hidden", Inputs: in, Outputs: 3, Format: f,
		Layers: []Layer{layer(in, out, act), layer(out, 3, act)}}
	w, b := edgeRows(rng, f, in, out)
	svm := &Model{Kind: SVM, Name: "edge-svm", Inputs: in, Outputs: out, Format: f,
		SVM: &SVMParams{W: w, B: b}}
	models := []*Model{head, hidden, svm}
	for _, m := range models {
		fuzzNormalizer(rng, m)
	}
	return models
}

// edgeInputs is every feature at +Inf, at -Inf, alternating, and a run of
// fuzzed vectors.
func edgeInputs(rng *rand.Rand, in int) [][]float64 {
	xs := [][]float64{make([]float64, in), make([]float64, in), make([]float64, in)}
	for i := 0; i < in; i++ {
		xs[0][i], xs[1][i], xs[2][i] = math.Inf(1), math.Inf(-1), math.Inf(1-2*(i%2))
	}
	for k := 0; k < 16; k++ {
		xs = append(xs, fuzzInput(rng, in))
	}
	return xs
}

// TestPredictorTreeDegenerate pins the flat-tree edge cases the fuzzer
// is unlikely to isolate: a bare leaf root (the walk runs zero steps), a
// maximally unbalanced chain (the walk parks on the leaf's self-loop for
// the remaining iterations), and thresholds at the saturation bound.
func TestPredictorTreeDegenerate(t *testing.T) {
	leaf := func(c int) *TreeNode { return &TreeNode{Feature: -1, Class: c} }
	cases := []struct {
		name string
		tree *TreeNode
	}{
		{"leaf-root", leaf(3)},
		{"left-chain", &TreeNode{Feature: 0, Threshold: 0,
			Left: &TreeNode{Feature: 1, Threshold: -1,
				Left:  &TreeNode{Feature: 0, Threshold: -2, Left: leaf(1), Right: leaf(2)},
				Right: leaf(3)},
			Right: leaf(0)}},
		{"saturated-threshold", &TreeNode{Feature: 0, Threshold: 1e9,
			Left: leaf(1), Right: leaf(2)}},
		{"negative-saturated", &TreeNode{Feature: 0, Threshold: -1e9,
			Left: leaf(1), Right: leaf(2)}},
	}
	xs := [][]float64{{0, 0}, {5, -5}, {-5, 5}, {1e9, -1e9}, {math.NaN(), 0}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := &Model{Kind: DTree, Name: "deg", Inputs: 2, Outputs: 4,
				Format: fixed.Q8_8, Tree: tc.tree}
			p, err := NewPredictor(m)
			if err != nil {
				t.Fatal(err)
			}
			for _, x := range xs {
				want, _ := m.InferQ(x)
				got, err := p.Classify(x)
				if err != nil || got != want {
					t.Fatalf("x=%v: Predictor=%d,%v InferQ=%d", x, got, err, want)
				}
			}
		})
	}
}

// TestPredictorReuseIsStateless: back-to-back Classify calls through the
// shared scratch buffers must not leak state between requests — the same
// input always produces the same class, interleaved with other inputs.
func TestPredictorReuseIsStateless(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := fuzzDNN(rng)
	p, err := NewPredictor(m)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 16)
	want := make([]int, len(xs))
	for i := range xs {
		xs[i] = fuzzInput(rng, m.Inputs)
		if want[i], err = p.Classify(xs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 50; round++ {
		i := rng.Intn(len(xs))
		got, err := p.Classify(xs[i])
		if err != nil || got != want[i] {
			t.Fatalf("round %d input %d: got %d,%v want %d", round, i, got, err, want[i])
		}
	}
}

// servedDense is a dense model of the shape the repo benchmark serves,
// built the way the root package's servedDNN builds it (seed 1, normal
// weights and biases), with one input vector: a DNN 7→15→8→23→2 (ReLU,
// softmax head) when widths has hidden layers, an SVM when it is just
// inputs and classes.
func servedDense(kind Kind, widths ...int) (*Model, []float64) {
	rng := rand.New(rand.NewSource(1))
	m := &Model{Kind: kind, Name: "served", Inputs: widths[0], Outputs: widths[len(widths)-1], Format: fixed.Q8_8}
	for li := 1; li < len(widths); li++ {
		in, out := widths[li-1], widths[li]
		l := Layer{In: in, Out: out, W: make([][]float64, out), B: make([]float64, out), Activation: "relu"}
		if li == len(widths)-1 {
			l.Activation = "softmax"
		}
		for o := range l.W {
			l.W[o] = make([]float64, in)
			for i := range l.W[o] {
				l.W[o][i] = rng.NormFloat64()
			}
			l.B[o] = rng.NormFloat64()
		}
		m.Layers = append(m.Layers, l)
	}
	if kind == SVM {
		m.SVM = &SVMParams{W: m.Layers[0].W, B: m.Layers[0].B}
		m.Layers = nil
	}
	x := make([]float64, m.Inputs)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return m, x
}

// benchClassify times single-vector Classify calls; per_vector_ns is the
// figure BenchmarkPredictorClassifyBatchDNN reports for the batch kernel.
func benchClassify(b *testing.B, m *Model, x []float64) {
	p, err := NewPredictor(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Classify(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "per_vector_ns")
}

// BenchmarkPredictorClassifyDNN: the served DNN, 7→15→8→23→2.
func BenchmarkPredictorClassifyDNN(b *testing.B) {
	m, x := servedDense(DNN, 7, 15, 8, 23, 2)
	benchClassify(b, m, x)
}

// BenchmarkPredictorClassifySVM: the botnet fixture's SVM, 30 features,
// 2 classes.
func BenchmarkPredictorClassifySVM(b *testing.B) {
	m, x := servedDense(SVM, 30, 2)
	benchClassify(b, m, x)
}

func BenchmarkPredictorClassifyDTree(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	m := &Model{Kind: DTree, Name: "bench", Inputs: 8, Outputs: 4,
		Format: fixed.Q8_8, Tree: fuzzTree(rng, 8, 4, 10)}
	p, err := NewPredictor(m)
	if err != nil {
		b.Fatal(err)
	}
	x := fuzzInput(rng, 8)
	for i := range x {
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			x[i] = 0.5
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Classify(x); err != nil {
			b.Fatal(err)
		}
	}
}
