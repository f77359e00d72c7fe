package p4gen

import (
	"strings"
	"testing"

	"repro/internal/fixed"
	"repro/internal/ir"
)

func svmModel() *ir.Model {
	return &ir.Model{Kind: ir.SVM, Name: "tc", Inputs: 3, Outputs: 2, Format: fixed.Q8_8,
		FeatureNames: []string{"pkt_len", "ip proto", "ttl"},
		SVM:          &ir.SVMParams{W: [][]float64{{1, 2, 3}, {4, 5, 6}}, B: []float64{0.5, -0.25}}}
}

func TestGenerateSVM(t *testing.T) {
	m := svmModel()
	p, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	// One MAC table per feature + the bias/decision table.
	if len(p.Tables) != 4 {
		t.Fatalf("tables = %v", p.Tables)
	}
	for _, want := range []string{
		"#include <v1model.p4>",
		"table svm_mac_pkt_len",
		"table svm_mac_ip_proto", // sanitized space
		"key = { hdr.features.pkt_len: ternary; }",
		"table svm_bias",
		"svm_bias.apply();\n    }",
		"meta.class = first strict argmax",
	} {
		if !strings.Contains(p.Source, want) {
			t.Fatalf("source missing %q", want)
		}
	}
	// One entry per MAC table carrying the exact quantized per-class
	// weight words, plus the bias entry.
	if len(p.Entries) != m.Inputs+1 {
		t.Fatalf("entries = %d, want %d", len(p.Entries), m.Inputs+1)
	}
	f := m.Format
	for fi := 0; fi < m.Inputs; fi++ {
		e := p.Entries[fi]
		if len(e.Params) != m.Outputs {
			t.Fatalf("entry %d params = %v", fi, e.Params)
		}
		for c := 0; c < m.Outputs; c++ {
			if e.Params[c] != f.Quantize(m.SVM.W[c][fi]) {
				t.Fatalf("entry %d class %d word %d, want %d", fi, c, e.Params[c], f.Quantize(m.SVM.W[c][fi]))
			}
		}
	}
	bias := p.Entries[m.Inputs]
	if bias.Table != "svm_bias" || bias.Params[0] != f.Quantize(0.5) || bias.Params[1] != f.Quantize(-0.25) {
		t.Fatalf("bias entry = %+v", bias)
	}
	// The same words must appear verbatim in the const entries blocks.
	if !strings.Contains(p.Source, "(_) : bias(128, -64);") {
		t.Fatalf("bias const entry missing:\n%s", p.Source)
	}
}

func TestGenerateSVMNormalizerHeader(t *testing.T) {
	m := svmModel()
	m.Mean = []float64{1.5, 0.125, -3}
	m.Std = []float64{2, 0.5, 1}
	p, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	// The normalization affine is part of the computed function, so the
	// artifact must carry it with round-trip precision.
	for _, want := range []string{
		"// normalize pkt_len mean=1.5 std=2",
		"// normalize ip_proto mean=0.125 std=0.5",
		"// normalize ttl mean=-3 std=1",
	} {
		if !strings.Contains(p.Source, want) {
			t.Fatalf("source missing %q:\n%s", want, p.Source)
		}
	}
}

func TestGenerateKMeans(t *testing.T) {
	m := &ir.Model{Kind: ir.KMeans, Name: "clu", Inputs: 2, Outputs: 3, Format: fixed.Q8_8,
		Centroids: [][]float64{{0, 0.5}, {1, 1}, {2, 2}}}
	p, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tables) != 3 { // one per cluster
		t.Fatalf("tables = %v", p.Tables)
	}
	if !strings.Contains(p.Source, "cluster_2.apply();\n    }") || strings.Count(p.Source, "first strict argmin") != 1 {
		t.Fatal("cluster apply missing, or the arg-min is not in the last cluster's action alone")
	}
	// Every cluster entry carries the full quantized centroid.
	if len(p.Entries) != 3 {
		t.Fatalf("entries = %d", len(p.Entries))
	}
	f := m.Format
	for k, e := range p.Entries {
		if len(e.Params) != m.Inputs {
			t.Fatalf("cluster %d params = %v", k, e.Params)
		}
		for i := range e.Params {
			if e.Params[i] != f.Quantize(m.Centroids[k][i]) {
				t.Fatalf("cluster %d coord %d = %d, want %d", k, i, e.Params[i], f.Quantize(m.Centroids[k][i]))
			}
		}
	}
	if !strings.Contains(p.Source, "(_) : dist_0(0, 128);") {
		t.Fatalf("centroid const entry missing:\n%s", p.Source)
	}
}

func TestGenerateTree(t *testing.T) {
	tree := &ir.TreeNode{Feature: 0, Threshold: 0.5,
		Left: &ir.TreeNode{Feature: -1, Class: 0},
		Right: &ir.TreeNode{Feature: 1, Threshold: 0.25,
			Left:  &ir.TreeNode{Feature: -1, Class: 1},
			Right: &ir.TreeNode{Feature: -1, Class: 0}}}
	m := &ir.Model{Kind: ir.DTree, Name: "dt", Inputs: 2, Outputs: 2, Format: fixed.Q8_8, Tree: tree}
	p, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	// depth 2 -> levels 0..2 = 3 tables
	if len(p.Tables) != 3 {
		t.Fatalf("tables = %v", p.Tables)
	}
	// 2 internal nodes × 2 goto entries + 3 leaves × 1 set_leaf entry.
	var gotos, leaves []Entry
	for _, e := range p.Entries {
		switch e.Action {
		case "goto_node":
			gotos = append(gotos, e)
		case "set_leaf":
			leaves = append(leaves, e)
		}
	}
	if len(gotos) != 4 || len(leaves) != 3 {
		t.Fatalf("gotos = %d leaves = %d (%+v)", len(gotos), len(leaves), p.Entries)
	}
	// Each internal node's two entries partition the format's raw range
	// at the quantized threshold (left range inclusive, matching
	// InferQ's `v <= Quantize(threshold)`).
	f := m.Format
	if gotos[0].Lo != f.MinRaw() || gotos[0].Hi != f.Quantize(0.5) || gotos[1].Lo != gotos[0].Hi+1 || gotos[1].Hi != f.MaxRaw() {
		t.Fatalf("root entries must split at the quantized threshold: %+v", gotos[:2])
	}
	// Leaf classes reach the artifact.
	if !strings.Contains(p.Source, ": set_leaf(1);") {
		t.Fatalf("leaf class entry missing:\n%s", p.Source)
	}
}

// A single-node tree (root is a leaf) must still emit an executable
// artifact: one level-0 table whose only entry sets the class — the
// degenerate case translation validation originally caught (the old
// emitter skipped leaves entirely, leaving the class undefined).
func TestGenerateTreeSingleLeaf(t *testing.T) {
	m := &ir.Model{Kind: ir.DTree, Name: "leaf", Inputs: 1, Outputs: 2, Format: fixed.Q8_8,
		Tree: &ir.TreeNode{Feature: -1, Class: 1}}
	p, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Tables) != 1 || len(p.Entries) != 1 {
		t.Fatalf("tables = %v entries = %+v", p.Tables, p.Entries)
	}
	e := p.Entries[0]
	if e.Action != "set_leaf" || e.Param != 1 || e.Node != 0 {
		t.Fatalf("leaf entry = %+v", e)
	}
}

// A threshold that quantizes to the format maximum has an empty right
// range; the emitter must omit it rather than emit Lo > Hi.
func TestGenerateTreeSaturatedThreshold(t *testing.T) {
	m := &ir.Model{Kind: ir.DTree, Name: "sat", Inputs: 1, Outputs: 2, Format: fixed.Q8_8,
		Tree: &ir.TreeNode{Feature: 0, Threshold: 1e6,
			Left:  &ir.TreeNode{Feature: -1, Class: 0},
			Right: &ir.TreeNode{Feature: -1, Class: 1}}}
	p, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range p.Entries {
		if e.Lo > e.Hi {
			t.Fatalf("empty range emitted: %+v", e)
		}
	}
}

// Wide formats must widen both the feature header and the match ranges —
// Q16.16 words do not fit the 16-bit ranges the emitter once hardcoded.
func TestGenerateWideFormat(t *testing.T) {
	m := &ir.Model{Kind: ir.DTree, Name: "wide", Inputs: 1, Outputs: 2, Format: fixed.Q16_16,
		Tree: &ir.TreeNode{Feature: 0, Threshold: 200,
			Left:  &ir.TreeNode{Feature: -1, Class: 0},
			Right: &ir.TreeNode{Feature: -1, Class: 1}}}
	p, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p.Source, "bit<32> f0;") {
		t.Fatal("feature header must use the format word width")
	}
	f := m.Format
	if p.Entries[0].Hi != f.Quantize(200) || p.Entries[1].Hi != f.MaxRaw() {
		t.Fatalf("wide-format ranges wrong: %+v", p.Entries[:2])
	}
}

func TestDNNRejected(t *testing.T) {
	m := &ir.Model{Kind: ir.DNN, Name: "d", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		Layers: []ir.Layer{{In: 2, Out: 2, W: [][]float64{{0, 0}, {0, 0}}, B: []float64{0, 0}, Activation: "softmax"}}}
	if _, err := Generate(m); err == nil {
		t.Fatal("DNN must be rejected by the MAT code generator")
	}
	if _, _, err := Layout(m); err == nil {
		t.Fatal("a DNN has no MAT layout")
	}
}

// TestLayoutMatchesProgram: Layout is the shape of what Generate emits —
// its table count and its largest per-table entry count.
func TestLayoutMatchesProgram(t *testing.T) {
	sat := &ir.Model{Kind: ir.DTree, Name: "sat", Inputs: 1, Outputs: 2, Format: fixed.Q8_8,
		Tree: &ir.TreeNode{Feature: 0, Threshold: 1e6,
			Left:  &ir.TreeNode{Feature: -1, Class: 0},
			Right: &ir.TreeNode{Feature: -1, Class: 1}}}
	bushy := &ir.Model{Kind: ir.DTree, Name: "bushy", Inputs: 2, Outputs: 3, Format: fixed.Q8_8,
		Tree: &ir.TreeNode{Feature: 0, Threshold: 0.5,
			Left: &ir.TreeNode{Feature: 1, Threshold: -0.25,
				Left:  &ir.TreeNode{Feature: -1, Class: 0},
				Right: &ir.TreeNode{Feature: -1, Class: 2}},
			Right: &ir.TreeNode{Feature: 1, Threshold: 0.75,
				Left:  &ir.TreeNode{Feature: -1, Class: 1},
				Right: &ir.TreeNode{Feature: -1, Class: 0}}}}
	models := append(degenerateModels(), svmModel(), sat, bushy,
		&ir.Model{Kind: ir.KMeans, Name: "clu", Inputs: 2, Outputs: 3, Format: fixed.Q8_8,
			Centroids: [][]float64{{0, 0.5}, {1, 1}, {2, 2}}})
	for _, m := range models {
		p, err := Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		perTable := map[string]int{}
		entries := 0
		for _, e := range p.Entries {
			perTable[e.Table]++
			entries = max(entries, perTable[e.Table])
		}
		gotTables, gotEntries, err := Layout(m)
		if err != nil {
			t.Fatal(err)
		}
		if gotTables != len(p.Tables) || gotEntries != entries {
			t.Errorf("%s: Layout = %d tables × %d entries, Generate emitted %d × %d",
				m.Name, gotTables, gotEntries, len(p.Tables), entries)
		}
	}
}

func TestInvalidModelRejected(t *testing.T) {
	bad := &ir.Model{Kind: ir.SVM, Name: "bad", Inputs: 2, Outputs: 2}
	if _, err := Generate(bad); err == nil {
		t.Fatal("invalid model must be rejected")
	}
}

func TestSanitize(t *testing.T) {
	if sanitize("ip proto") != "ip_proto" || sanitize("") != "f" || sanitize("a.b-c") != "a_b_c" {
		t.Fatal("sanitize")
	}
}
