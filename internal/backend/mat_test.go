package backend

import (
	"strings"
	"testing"

	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/p4gen"
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

// emitted counts the program p4gen ships for m: the layout every
// expectation below is read from.
func emitted(t *testing.T, m *ir.Model) (tables, entries int) {
	t.Helper()
	p, err := p4gen.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	perTable := map[string]int{}
	for _, e := range p.Entries {
		perTable[e.Table]++
		entries = max(entries, perTable[e.Table])
	}
	return len(p.Tables), entries
}

func estimate(t *testing.T, target *MATTarget, m *ir.Model) Verdict {
	t.Helper()
	v, err := target.Estimate(m)
	if err != nil {
		t.Fatal(err)
	}
	tables, entries := emitted(t, m)
	if v.Metrics["tables"] != float64(tables) || v.Metrics["entries"] != float64(entries) {
		t.Fatalf("%s verdict %v, emitted program has %d tables × %d entries", m.Kind, v.Metrics, tables, entries)
	}
	if v.Metrics["latency_ns"] != float64(tables) {
		t.Fatalf("latency_ns = %v, want one ns per table", v.Metrics["latency_ns"])
	}
	return v
}

func TestMATSVMTablePerFeature(t *testing.T) {
	// IIsy: "an implementation of an SVM may use a MAT per feature".
	v := estimate(t, NewMATTarget(0), matSVMModel(7, 5))
	if v.Metrics["tables"] != 8 { // 7 features + decision
		t.Fatalf("SVM tables = %v, want 8", v.Metrics["tables"])
	}
	if !v.Feasible {
		t.Fatal("7-feature SVM must fit the default pipeline")
	}
	if v.Metrics["throughput_gpkts"] != 1.0 {
		t.Fatal("fitting MAT program must run at line rate")
	}
}

func TestMATKMeansTablePerCluster(t *testing.T) {
	v := estimate(t, NewMATTarget(0), matKMeansModel(7, 5))
	if v.Metrics["tables"] != 5 {
		t.Fatalf("KMeans tables = %v, want 5", v.Metrics["tables"])
	}
}

func TestMATBudgetBinds(t *testing.T) {
	tight := NewMATTarget(3)
	v := estimate(t, tight, matKMeansModel(7, 5))
	if v.Feasible {
		t.Fatal("5 clusters must not fit 3 tables")
	}
	if v.Reason == "" {
		t.Fatal("must carry reason")
	}
	if v.Metrics["throughput_gpkts"] != 0 {
		t.Fatal("non-fitting program has no deployable throughput")
	}
	if v2 := estimate(t, tight, matKMeansModel(7, 3)); !v2.Feasible {
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
	v := estimate(t, NewMATTarget(0), m)
	if v.Metrics["tables"] != 3 { // levels 0..2
		t.Fatalf("DTree tables = %v, want 3", v.Metrics["tables"])
	}
}

func TestMATDNNRejected(t *testing.T) {
	m := &ir.Model{Kind: ir.DNN, Name: "d", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		Layers: []ir.Layer{{In: 2, Out: 2, W: [][]float64{{0, 0}, {0, 0}}, B: make([]float64, 2), Activation: "softmax"}}}
	if _, err := NewMATTarget(0).Estimate(m); err == nil || !strings.Contains(err.Error(), "DNNs do not map") {
		t.Fatalf("a DNN has no MAT program to count; got %v", err)
	}
}
