package backend

import (
	"testing"

	"repro/internal/fixed"
	"repro/internal/ir"
)

func matSVMModel(features, classes int) *ir.Model {
	m := &ir.Model{Kind: ir.SVM, Name: "s", Inputs: features, Outputs: classes, Format: fixed.Q8_8,
		SVM: &ir.SVMParams{W: make([][]float64, classes), B: make([]float64, classes)}}
	for i := range m.SVM.W {
		m.SVM.W[i] = make([]float64, features)
	}
	return m
}

func matKMeansModel(features, k int) *ir.Model {
	m := &ir.Model{Kind: ir.KMeans, Name: "k", Inputs: features, Outputs: k, Format: fixed.Q8_8,
		Centroids: make([][]float64, k)}
	for i := range m.Centroids {
		m.Centroids[i] = make([]float64, features)
	}
	return m
}

func TestMATPipelineValidate(t *testing.T) {
	if err := DefaultMATPipeline().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []MATPipeline{
		{Tables: 0, EntriesPerTable: 1, StageLatencyNS: 1, LineRateGPkts: 1},
		{Tables: 1, EntriesPerTable: 0, StageLatencyNS: 1, LineRateGPkts: 1},
		{Tables: 1, EntriesPerTable: 1, StageLatencyNS: 0, LineRateGPkts: 1},
		{Tables: 1, EntriesPerTable: 1, StageLatencyNS: 1, LineRateGPkts: 0},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("pipeline %d must fail", i)
		}
	}
}

func TestMATSVMTablePerFeature(t *testing.T) {
	// IIsy: "an implementation of an SVM may use a MAT per feature".
	rep, err := estimateMAT(DefaultMATPipeline(), matSVMModel(7, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesUsed != 8 { // 7 features + decision
		t.Fatalf("SVM tables = %d, want 8", rep.TablesUsed)
	}
	if !rep.Fits {
		t.Fatal("7-feature SVM must fit default pipeline")
	}
	if rep.ThroughputGPkts != 1.0 {
		t.Fatal("fitting MAT program must run at line rate")
	}
}

func TestMATKMeansTablePerCluster(t *testing.T) {
	rep, err := estimateMAT(DefaultMATPipeline(), matKMeansModel(7, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesUsed != 5 {
		t.Fatalf("KMeans tables = %d, want 5", rep.TablesUsed)
	}
}

func TestMATBudgetBinds(t *testing.T) {
	tight := DefaultMATPipeline()
	tight.Tables = 3
	rep, _ := estimateMAT(tight, matKMeansModel(7, 5))
	if rep.Fits {
		t.Fatal("5 clusters must not fit 3 tables")
	}
	if rep.Reason == "" {
		t.Fatal("must carry reason")
	}
	if rep.ThroughputGPkts != 0 {
		t.Fatal("non-fitting program has no deployable throughput")
	}
	rep2, _ := estimateMAT(tight, matKMeansModel(7, 3))
	if !rep2.Fits {
		t.Fatal("3 clusters must fit 3 tables")
	}
}

func TestMATDTreeTablePerLevel(t *testing.T) {
	tree := &ir.TreeNode{Feature: 0, Threshold: 0.5,
		Left: &ir.TreeNode{Feature: -1, Class: 0},
		Right: &ir.TreeNode{Feature: 1, Threshold: 0.3,
			Left:  &ir.TreeNode{Feature: -1, Class: 1},
			Right: &ir.TreeNode{Feature: -1, Class: 0}},
	}
	m := &ir.Model{Kind: ir.DTree, Name: "t", Inputs: 2, Outputs: 2, Format: fixed.Q8_8, Tree: tree}
	rep, err := estimateMAT(DefaultMATPipeline(), m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesUsed != 3 { // depth 2 + leaf table
		t.Fatalf("DTree tables = %d, want 3", rep.TablesUsed)
	}
}

func TestMATDNNChargedLikeN2Net(t *testing.T) {
	m := &ir.Model{Kind: ir.DNN, Name: "d", Inputs: 4, Outputs: 2, Format: fixed.Q8_8,
		Layers: []ir.Layer{
			{In: 4, Out: 4, W: [][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}, B: make([]float64, 4), Activation: "relu"},
			{In: 4, Out: 2, W: [][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}}, B: make([]float64, 2), Activation: "softmax"},
		}}
	rep, err := estimateMAT(DefaultMATPipeline(), m)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TablesUsed != 24 { // 12 per layer
		t.Fatalf("DNN tables = %d, want 24", rep.TablesUsed)
	}
}
