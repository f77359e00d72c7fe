package ir

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/fixed"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/svm"
)

func trainSmallNN(t *testing.T, d *dataset.Dataset) *nn.Network {
	t.Helper()
	c := nn.Config{
		Inputs: d.Features(), Hidden: []int{8}, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.Adam,
		LearnRate: 0.01, BatchSize: 16, Epochs: 30, Seed: 1,
	}
	net, err := nn.New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Train(d); err != nil {
		t.Fatal(err)
	}
	return net
}

func blob2(n int, seed int64) *dataset.Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(n, 2)
	for i := 0; i < n; i++ {
		c := i % 2
		d.X.Set(i, 0, float64(c)*2-1+rng.NormFloat64()*0.3)
		d.X.Set(i, 1, float64(c)*2-1+rng.NormFloat64()*0.3)
		d.Y[i] = c
	}
	return d
}

func TestKindStrings(t *testing.T) {
	if DNN.String() != "dnn" || KMeans.String() != "kmeans" || Kind(9).String() == "" {
		t.Fatal("Kind stringer")
	}
	if k, err := ParseKind("decision_tree"); err != nil || k != DTree {
		t.Fatal("ParseKind alias")
	}
	_, err := ParseKind("nope")
	if err == nil {
		t.Fatal("ParseKind must reject unknown")
	}
	for _, name := range KindNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-algorithm error must list %q, got: %v", name, err)
		}
	}
}

func TestFromNNAndValidate(t *testing.T) {
	d := blob2(200, 1)
	net := trainSmallNN(t, d)
	m := FromNN("ad", net, fixed.Q8_8)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.ParamCount() != net.ParamCount() {
		t.Fatalf("param count %d vs %d", m.ParamCount(), net.ParamCount())
	}
	widths := m.HiddenWidths()
	if len(widths) != 1 || widths[0] != 8 {
		t.Fatalf("HiddenWidths = %v", widths)
	}
	if m.Layers[len(m.Layers)-1].Activation != "softmax" {
		t.Fatal("output layer must be softmax")
	}
}

func TestNNFloatInferenceMatchesNetwork(t *testing.T) {
	d := blob2(200, 2)
	net := trainSmallNN(t, d)
	m := FromNN("ad", net, fixed.Q8_8)
	for i := 0; i < 50; i++ {
		want := net.PredictVec(d.X.Row(i))
		got, err := m.Infer(d.X.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sample %d: IR %d vs network %d", i, got, want)
		}
	}
}

func TestQuantizedInferenceCloseToFloat(t *testing.T) {
	d := blob2(300, 3)
	net := trainSmallNN(t, d)
	m := FromNN("ad", net, fixed.Q8_8)
	agree := 0
	for i := 0; i < d.Len(); i++ {
		f, _ := m.Infer(d.X.Row(i))
		q, err := m.InferQ(d.X.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if f == q {
			agree++
		}
	}
	if frac := float64(agree) / float64(d.Len()); frac < 0.95 {
		t.Fatalf("quantized agreement %v < 0.95", frac)
	}
}

func TestNormalizerFolded(t *testing.T) {
	d := blob2(300, 4)
	norm := dataset.FitNormalizer(d)
	normalized := d.Clone()
	norm.Apply(normalized)
	net := trainSmallNN(t, normalized)
	m := FromNN("ad", net, fixed.Q8_8).WithNormalizer(norm)
	// Infer on RAW features must match network on NORMALIZED features.
	for i := 0; i < 50; i++ {
		want := net.PredictVec(normalized.X.Row(i))
		got, _ := m.Infer(d.X.Row(i))
		if got != want {
			t.Fatalf("normalizer folding broken at %d", i)
		}
	}
}

func TestFromSVM(t *testing.T) {
	d := blob2(200, 5)
	sc := svm.Config{Features: 2, Classes: 2, LearnRate: 0.1, Lambda: 0.001, Epochs: 10, Seed: 1}
	sm, err := svm.Train(sc, d)
	if err != nil {
		t.Fatal(err)
	}
	m := FromSVM("tc", sm, fixed.Q8_8)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	agree := 0
	for i := 0; i < d.Len(); i++ {
		got, _ := m.Infer(d.X.Row(i))
		if got == sm.PredictVec(d.X.Row(i)) {
			agree++
		}
	}
	if agree != d.Len() {
		t.Fatalf("SVM IR agreement %d/%d", agree, d.Len())
	}
	q, err := m.PredictQ(d)
	if err != nil {
		t.Fatal(err)
	}
	acc := metrics.FromLabels(d.Y, q, 2).Accuracy()
	if acc < 0.95 {
		t.Fatalf("quantized SVM accuracy %v", acc)
	}
}

func TestFromKMeans(t *testing.T) {
	d := blob2(200, 6)
	km, err := kmeans.Train(kmeans.Config{K: 2, MaxIters: 30, Seed: 1}, d)
	if err != nil {
		t.Fatal(err)
	}
	m := FromKMeans("clu", km, fixed.Q8_8)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		got, _ := m.Infer(d.X.Row(i))
		if got != km.AssignVec(d.X.Row(i)) {
			t.Fatalf("KMeans IR disagrees at %d", i)
		}
	}
	// Quantized assignment should agree nearly always on separated blobs.
	agree := 0
	for i := 0; i < d.Len(); i++ {
		f, _ := m.Infer(d.X.Row(i))
		q, _ := m.InferQ(d.X.Row(i))
		if f == q {
			agree++
		}
	}
	if float64(agree)/float64(d.Len()) < 0.98 {
		t.Fatalf("quantized KMeans agreement %d/%d", agree, d.Len())
	}
}

func TestFromDTree(t *testing.T) {
	d := blob2(200, 7)
	tm, err := dtree.Train(dtree.Config{MaxDepth: 4, MinLeaf: 2, Classes: 2}, d)
	if err != nil {
		t.Fatal(err)
	}
	m := FromDTree("dt", tm, 2, fixed.Q8_8)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Len(); i++ {
		got, _ := m.Infer(d.X.Row(i))
		if got != tm.PredictVec(d.X.Row(i)) {
			t.Fatalf("DTree IR disagrees at %d", i)
		}
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	d := blob2(100, 8)
	net := trainSmallNN(t, d)
	m := FromNN("x", net, fixed.Q8_8)
	m.Layers[0].In = 99
	if m.Validate() == nil {
		t.Fatal("layer shape corruption must fail validation")
	}
	m2 := &Model{Kind: SVM, Name: "s", Inputs: 2, Outputs: 2}
	if m2.Validate() == nil {
		t.Fatal("missing SVM params must fail")
	}
	m3 := &Model{Kind: DTree, Name: "t", Inputs: 2, Outputs: 2}
	if m3.Validate() == nil {
		t.Fatal("missing tree must fail")
	}
	m4 := &Model{Kind: KMeans, Name: "k", Inputs: 2, Outputs: 3}
	if m4.Validate() == nil {
		t.Fatal("missing centroids must fail")
	}
}

func TestInferErrors(t *testing.T) {
	d := blob2(100, 9)
	net := trainSmallNN(t, d)
	m := FromNN("x", net, fixed.Q8_8)
	if _, err := m.Infer([]float64{1}); err == nil {
		t.Fatal("wrong input size must error")
	}
	if _, err := m.InferQ([]float64{1, 2, 3}); err == nil {
		t.Fatal("wrong input size must error (quantized)")
	}
}

func TestParamCounts(t *testing.T) {
	m := &Model{Kind: SVM, Inputs: 3, Outputs: 2,
		SVM: &SVMParams{W: [][]float64{{1, 2, 3}, {4, 5, 6}}, B: []float64{0, 0}}}
	if m.ParamCount() != 8 {
		t.Fatalf("SVM params = %d", m.ParamCount())
	}
	mk := &Model{Kind: KMeans, Inputs: 3, Outputs: 2,
		Centroids: [][]float64{{1, 2, 3}, {4, 5, 6}}}
	if mk.ParamCount() != 6 {
		t.Fatalf("KMeans params = %d", mk.ParamCount())
	}
}

func TestTreeNodeDepth(t *testing.T) {
	leaf := func(c int) *TreeNode { return &TreeNode{Feature: -1, Class: c} }
	lopsided := &TreeNode{Feature: 0, Left: leaf(0),
		Right: &TreeNode{Feature: 1, Left: leaf(1),
			Right: &TreeNode{Feature: 0, Left: leaf(0), Right: leaf(1)}}}
	for name, tc := range map[string]struct {
		n    *TreeNode
		want int
	}{
		"nil":      {nil, 0},
		"leaf":     {leaf(3), 0},
		"stump":    {&TreeNode{Feature: 0, Left: leaf(0), Right: leaf(1)}, 1},
		"lopsided": {lopsided, 3},
	} {
		if got := tc.n.Depth(); got != tc.want {
			t.Errorf("%s: depth %d, want %d", name, got, tc.want)
		}
	}
}
