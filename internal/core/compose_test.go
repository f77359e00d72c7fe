package core

import (
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/fixed"
	"repro/internal/ir"
)

func adModel(t *testing.T) *ir.Model {
	t.Helper()
	dims := []int{7, 12, 6, 3, 2}
	m := &ir.Model{Kind: ir.DNN, Name: "ad", Inputs: 7, Outputs: 2, Format: fixed.Q8_8}
	for i := 0; i < len(dims)-1; i++ {
		l := ir.Layer{In: dims[i], Out: dims[i+1], Activation: "relu"}
		l.W = make([][]float64, l.Out)
		for o := range l.W {
			l.W[o] = make([]float64, l.In)
		}
		l.B = make([]float64, l.Out)
		m.Layers = append(m.Layers, l)
	}
	m.Layers[len(m.Layers)-1].Activation = "softmax"
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCompositionStructure(t *testing.T) {
	m := adModel(t)
	c := Chain(Leaf(m), Parallel(Leaf(m), Leaf(m)), Leaf(m)) // m > (m|m) > m
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(c.Models()) != 4 {
		t.Fatalf("models = %d", len(c.Models()))
	}
	if c.ChainDepth() != 3 {
		t.Fatalf("chain depth = %d, want 3", c.ChainDepth())
	}
	if !strings.Contains(c.String(), "|") || !strings.Contains(c.String(), ">") {
		t.Fatalf("String = %q", c.String())
	}
}

func TestChainDepths(t *testing.T) {
	m := adModel(t)
	seq := Chain(Leaf(m), Leaf(m), Leaf(m), Leaf(m))
	par := Parallel(Leaf(m), Leaf(m), Leaf(m), Leaf(m))
	if seq.ChainDepth() != 4 || par.ChainDepth() != 1 {
		t.Fatalf("depths %d/%d", seq.ChainDepth(), par.ChainDepth())
	}
}

func TestCompositionValidateErrors(t *testing.T) {
	if (&Composition{}).Validate() == nil {
		t.Fatal("empty operator must fail")
	}
	var nilComp *Composition
	if nilComp.Validate() == nil {
		t.Fatal("nil composition must fail")
	}
	m := adModel(t)
	leafWithKids := &Composition{Model: m, Children: []*Composition{Leaf(m)}}
	if leafWithKids.Validate() == nil {
		t.Fatal("leaf with children must fail")
	}
}

func TestTable3ResourceInvariance(t *testing.T) {
	// The Table-3 experiment: identical CU/MU totals across strategies.
	m := adModel(t)
	target := backend.NewTaurusTarget()
	seq, err := EstimateComposition(target, Chain(Leaf(m), Leaf(m), Leaf(m), Leaf(m)))
	if err != nil {
		t.Fatal(err)
	}
	par, err := EstimateComposition(target, Parallel(Leaf(m), Leaf(m), Leaf(m), Leaf(m)))
	if err != nil {
		t.Fatal(err)
	}
	mix, err := EstimateComposition(target, Chain(Leaf(m), Parallel(Leaf(m), Leaf(m)), Leaf(m)))
	if err != nil {
		t.Fatal(err)
	}
	if seq.Metrics["cus"] != par.Metrics["cus"] || seq.Metrics["cus"] != mix.Metrics["cus"] {
		t.Fatalf("CU totals differ: %v/%v/%v", seq.Metrics["cus"], par.Metrics["cus"], mix.Metrics["cus"])
	}
	if seq.Metrics["mus"] != par.Metrics["mus"] || seq.Metrics["mus"] != mix.Metrics["mus"] {
		t.Fatal("MU totals differ")
	}
	if !(par.Metrics["latency_ns"] < mix.Metrics["latency_ns"] &&
		mix.Metrics["latency_ns"] < seq.Metrics["latency_ns"]) {
		t.Fatal("latency ordering wrong across strategies")
	}
	if !seq.Feasible || !par.Feasible || !mix.Feasible {
		t.Fatal("4 AD copies must fit a 16x16 grid")
	}
}

func TestEstimateCompositionInvalid(t *testing.T) {
	target := backend.NewTaurusTarget()
	if _, err := EstimateComposition(target, &Composition{}); err == nil {
		t.Fatal("invalid composition must error")
	}
}
