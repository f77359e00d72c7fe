package taurus

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/nn"
)

// trainedModel builds a small trained DNN IR for simulation tests.
func trainedModel(t *testing.T, hidden []int, seed int64) (*ir.Model, *dataset.Dataset) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(300, 4)
	for i := 0; i < 300; i++ {
		c := i % 2
		for j := 0; j < 4; j++ {
			d.X.Set(i, j, float64(c)*1.5+rng.NormFloat64()*0.4)
		}
		d.Y[i] = c
	}
	cfg := nn.Config{
		Inputs: 4, Hidden: hidden, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.Adam,
		LearnRate: 0.01, BatchSize: 32, Epochs: 15, Seed: seed,
	}
	net, err := nn.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(d); err != nil {
		t.Fatal(err)
	}
	return ir.FromNN("sim", net, fixed.Q8_8), d
}

func TestSimMatchesInferQ(t *testing.T) {
	m, d := trainedModel(t, []int{12, 6}, 1)
	sim, err := NewSim(DefaultGrid(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		want, err := m.InferQ(d.X.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := sim.Process(d.X.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sample %d: sim %d vs InferQ %d", i, got, want)
		}
	}
}

func TestSimStageCountMatchesEstimate(t *testing.T) {
	// The analytic Estimate and the compiled pipeline must agree on depth
	// — the property that makes the analytic model a valid substitute.
	for _, hidden := range [][]int{{8}, {12, 6}, {16, 12, 8}, {10, 10, 10, 10}} {
		m, _ := trainedModel(t, hidden, 7)
		sim, err := NewSim(DefaultGrid(), m)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := Estimate(DefaultGrid(), DefaultConstraints(), m)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Stages() != rep.Stages {
			t.Fatalf("hidden %v: sim %d stages, estimate %d", hidden, sim.Stages(), rep.Stages)
		}
	}
}

func TestSimWithNormalizer(t *testing.T) {
	m, d := trainedModel(t, []int{8}, 3)
	norm := dataset.FitNormalizer(d)
	m.Mean = append([]float64{}, norm.Mean...)
	m.Std = append([]float64{}, norm.Std...)
	sim, err := NewSim(DefaultGrid(), m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		want, _ := m.InferQ(d.X.Row(i))
		got, _, err := sim.Process(d.X.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("normalized sample %d: sim %d vs InferQ %d", i, got, want)
		}
	}
}

func TestSimRejectsNonDNN(t *testing.T) {
	m := &ir.Model{Kind: ir.SVM, Name: "s", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		SVM: &ir.SVMParams{W: [][]float64{{1, 2}, {3, 4}}, B: []float64{0, 0}}}
	if _, err := NewSim(DefaultGrid(), m); err == nil {
		t.Fatal("non-DNN must be rejected")
	}
}

func TestSimProcessErrors(t *testing.T) {
	m, _ := trainedModel(t, []int{8}, 5)
	sim, _ := NewSim(DefaultGrid(), m)
	if _, _, err := sim.Process([]float64{1}); err == nil {
		t.Fatal("wrong width must error")
	}
}

// Regression (validator-found): a lane whose partial dot product
// overflows the Q format must not saturate independently — the fabric
// reduce tree keeps full precision until one writeback. Lane 0 sums to
// +7.5e9 raw and lane 1 to -7.5e9; per-lane saturation collapsed them to
// +32767/-32768 (score -1) while the true sum is 0, flipping the argmax.
func TestSimLaneSaturationRegression(t *testing.T) {
	m := &ir.Model{Kind: ir.DNN, Name: "lanesat", Inputs: 16, Outputs: 2, Format: fixed.Q8_8}
	l := ir.Layer{In: 16, Out: 2, B: []float64{0, 0}, Activation: "softmax"}
	l.W = [][]float64{make([]float64, 16), make([]float64, 16)}
	for j := 0; j < 8; j++ {
		l.W[0][j] = 120
		l.W[0][8+j] = -120
	}
	m.Layers = []ir.Layer{l}
	x := make([]float64, 16)
	for j := range x {
		x[j] = 120
	}
	sim, err := NewSim(DefaultGrid(), m)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.InferQ(x)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sim.Process(x)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("lane-saturated input: sim %d vs InferQ %d", got, want)
	}
	if want != 0 {
		t.Fatalf("test vector lost its discriminating power: InferQ = %d", want)
	}
}

// Regression (validator-found): normalization must happen in the float
// domain before quantization. Quantizing first destroys sub-LSB inputs
// (0.001 quantizes to 0 in Q8.8), so renormalizing the dequantized word
// computes 0/std instead of x/std.
func TestSimNormalizerPrecisionRegression(t *testing.T) {
	m := &ir.Model{Kind: ir.DNN, Name: "normprec", Inputs: 1, Outputs: 2, Format: fixed.Q8_8,
		Mean: []float64{0}, Std: []float64{0.001},
		Layers: []ir.Layer{{In: 1, Out: 2, W: [][]float64{{1}, {0}}, B: []float64{0, 0.5}, Activation: "softmax"}}}
	sim, err := NewSim(DefaultGrid(), m)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.001} // below one LSB; normalizes to exactly 1.0
	want, err := m.InferQ(x)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := sim.Process(x)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("sub-LSB input: sim %d vs InferQ %d", got, want)
	}
	if want != 0 {
		t.Fatalf("test vector lost its discriminating power: InferQ = %d", want)
	}
}
