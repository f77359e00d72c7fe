package core

// Whole-pipeline feasibility (§3.2.1): a composition-capable Target
// estimates a multi-model schedule as the declared Alchemy schedule
// reads it, the compiled models in order and the longest > chain.

import (
	"slices"
	"testing"

	"repro/alchemy"
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

func declared(name string) *alchemy.Model {
	return alchemy.NewModel(alchemy.ModelSpec{Name: name,
		DataLoader: alchemy.DataLoaderFunc(func() (*alchemy.Data, error) { return nil, nil })})
}

// estimate reads s with every leaf compiled to its own copy of the AD
// model and estimates it on the Taurus target.
func estimate(t *testing.T, s *alchemy.Schedule) ([]*ir.Model, Verdict) {
	t.Helper()
	m := adModel(t)
	built := map[*alchemy.Model]*ir.Model{}
	models, depth := s.Compose(func(d *alchemy.Model) *ir.Model {
		if built[d] == nil {
			c := *m
			c.Name = d.Spec.Name
			built[d] = &c
		}
		return built[d]
	})
	var target Target = backend.NewTaurusTarget()
	v, err := target.(backend.Composer).EstimateComposition(models, depth)
	if err != nil {
		t.Fatal(err)
	}
	return models, v
}

func TestCompositionStructure(t *testing.T) {
	a, b, c, d := declared("a"), declared("b"), declared("c"), declared("d")
	s := alchemy.Seq(a, alchemy.Par(b, c), d) // a > (b | c) > d
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	models, v := estimate(t, s)
	var names []string
	for _, m := range models {
		names = append(names, m.Name)
	}
	if !slices.Equal(names, []string{"a", "b", "c", "d"}) {
		t.Fatalf("models = %v, want schedule order a b c d", names)
	}
	if v.Metrics["models"] != 4 || v.Metrics["chain_depth"] != 3 {
		t.Fatalf("chain depth = %v over %v models, want 3 over 4", v.Metrics["chain_depth"], v.Metrics["models"])
	}
}

func TestChainDepths(t *testing.T) {
	m := declared("ad")
	_, seq := estimate(t, alchemy.Seq(m, m, m, m))
	_, par := estimate(t, alchemy.Par(m, m, m, m))
	if seq.Metrics["chain_depth"] != 4 || par.Metrics["chain_depth"] != 1 {
		t.Fatalf("depths %v/%v", seq.Metrics["chain_depth"], par.Metrics["chain_depth"])
	}
	if !(par.Metrics["latency_ns"] < seq.Metrics["latency_ns"]) {
		t.Fatalf("a chain of four must be slower than four side by side: %v vs %v",
			seq.Metrics["latency_ns"], par.Metrics["latency_ns"])
	}
}
