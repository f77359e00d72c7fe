package homunculus

import (
	"bytes"
	"testing"

	"repro/alchemy"
	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/ir"
)

// persistTestPipeline is a handcrafted two-app pipeline exercising every
// persisted field: models of two kinds, verdict metrics, generated code,
// a composition verdict, and one model-less (infeasible) app.
func persistTestPipeline() *Pipeline {
	tree := &ir.Model{
		Kind: ir.DTree, Name: "ad", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		FeatureNames: []string{"f0", "f1"},
		Tree: &ir.TreeNode{
			Feature: 0, Threshold: 0.5,
			Left:  &ir.TreeNode{Feature: -1, Class: 0},
			Right: &ir.TreeNode{Feature: -1, Class: 1},
		},
	}
	net := &ir.Model{
		Kind: ir.DNN, Name: "tc", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		Mean: []float64{0.1, 0.2}, Std: []float64{1, 2},
		Layers: []ir.Layer{
			{In: 2, Out: 2, Activation: "relu", W: [][]float64{{0.5, -0.5}, {0.25, 0.75}}, B: []float64{0, 0.1}},
		},
	}
	return &Pipeline{
		Platform: "taurus",
		Apps: []AppResult{
			{
				Name: "ad", Algorithm: "dtree", Metric: 0.93, Model: tree,
				Verdict: core.Verdict{Feasible: true, Metrics: map[string]float64{"cus": 12, "lut_pct": 3.5}},
				Code:    "// spatial source\n",
			},
			{
				Name: "tc", Algorithm: "dnn", Metric: 0.88, Model: net,
				Verdict: core.Verdict{Feasible: true, Metrics: map[string]float64{"cus": 40}},
				Code:    "// more source\n",
			},
			{
				Name:    "infeasible",
				Verdict: core.Verdict{Feasible: false, Reason: "no candidate fit"},
			},
		},
		Composition: &core.Verdict{Feasible: true, Metrics: map[string]float64{"cus": 52}},
	}
}

func TestPipelineRoundTrip(t *testing.T) {
	pipe := persistTestPipeline()
	raw, err := MarshalPipeline(pipe)
	if err != nil {
		t.Fatalf("MarshalPipeline: %v", err)
	}
	got, err := UnmarshalPipeline(raw)
	if err != nil {
		t.Fatalf("UnmarshalPipeline: %v", err)
	}
	if got.Platform != "taurus" || len(got.Apps) != 3 {
		t.Fatalf("round trip lost structure: %+v", got)
	}
	if got.Apps[0].Algorithm != "dtree" || got.Apps[0].Metric != 0.93 || got.Apps[0].Code != "// spatial source\n" {
		t.Fatalf("app fields lost: %+v", got.Apps[0])
	}
	if got.Apps[0].Model == nil || got.Apps[0].Model.Kind != ir.DTree || got.Apps[0].Model.Tree == nil {
		t.Fatalf("tree model lost: %+v", got.Apps[0].Model)
	}
	if got.Apps[1].Model == nil || got.Apps[1].Model.Kind != ir.DNN || len(got.Apps[1].Model.Layers) != 1 {
		t.Fatalf("dnn model lost: %+v", got.Apps[1].Model)
	}
	if got.Apps[2].Model != nil || got.Apps[2].Verdict.Feasible || got.Apps[2].Verdict.Reason != "no candidate fit" {
		t.Fatalf("infeasible app changed: %+v", got.Apps[2])
	}
	if got.Composition == nil || got.Composition.Metrics["cus"] != 52 {
		t.Fatalf("composition lost: %+v", got.Composition)
	}
	if got.Apps[0].Verdict.Metrics["lut_pct"] != 3.5 {
		t.Fatalf("verdict metrics lost: %+v", got.Apps[0].Verdict)
	}

	// Recovered models must classify identically to the originals.
	for _, x := range [][]float64{{0, 0}, {1, 1}, {0.4, 2}, {0.6, -1}} {
		want, err := pipe.Apps[0].Model.Infer(x)
		if err != nil {
			t.Fatal(err)
		}
		c, err := got.Apps[0].Model.Infer(x)
		if err != nil || c != want {
			t.Fatalf("recovered tree diverges on %v: %d vs %d (%v)", x, c, want, err)
		}
	}
}

// TestPipelineMarshalDeterministic is what makes the artifact store
// content-addressed in practice: equal pipelines serialize to equal
// bytes, including after a round trip through the store format.
func TestPipelineMarshalDeterministic(t *testing.T) {
	a, err := MarshalPipeline(persistTestPipeline())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalPipeline(persistTestPipeline())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two marshals of equal pipelines differ")
	}
	back, err := UnmarshalPipeline(a)
	if err != nil {
		t.Fatal(err)
	}
	c, err := MarshalPipeline(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("marshal→unmarshal→marshal is not byte-stable:\n%s\nvs\n%s", a, c)
	}
}

func TestPipelineCandidatesNotPersisted(t *testing.T) {
	pipe := persistTestPipeline()
	pipe.Apps[0].Candidates = []core.CandidateResult{{Algorithm: ir.DTree, Metric: 0.9}}
	raw, err := MarshalPipeline(pipe)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalPipeline(raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.Apps[0].Candidates != nil {
		t.Fatal("candidate telemetry must not round-trip through the store")
	}
}

func TestPipelineUnmarshalRejectsBadInput(t *testing.T) {
	if _, err := UnmarshalPipeline([]byte("{broken")); err == nil {
		t.Fatal("garbage must not parse")
	}
	if _, err := UnmarshalPipeline([]byte(`{"version":99,"platform":"taurus"}`)); err == nil {
		t.Fatal("unknown version must be rejected")
	}
	// An invalid embedded model must fail validation, not load.
	if _, err := UnmarshalPipeline([]byte(`{"version":1,"platform":"taurus","apps":[{"name":"x","metric":0,"verdict":{"feasible":true},"model":{"version":1,"kind":"dnn","name":"x","inputs":1,"outputs":1}}]}`)); err == nil {
		t.Fatal("invalid embedded model must be rejected")
	}
}

func TestSearchConfigRoundTripPreservesSpecHash(t *testing.T) {
	cfg := core.DefaultSearchConfig()
	cfg.Seed = 7
	cfg.TrainEpochs = 42
	cfg.Algorithms = []ir.Kind{ir.DNN, ir.DTree}
	p := servicePlatform(3)
	p.Sched.Model.Spec.DataLoader = alchemy.NamedLoader("persist_test_rt")
	wj, err := encodeWireJob(p, &options{search: cfg, validate: true})
	if err != nil {
		t.Fatalf("encodeWireJob: %v", err)
	}
	_, back, err := decodeWireJob(wj)
	if err != nil {
		t.Fatalf("decodeWireJob: %v", err)
	}
	if !back.validate {
		t.Fatal("validate flag lost in search-config round trip")
	}

	// The recovered config must produce the same content address as the
	// original — that is what makes a recompiled job land on the same
	// artifact key.
	h1, err := SpecHash(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := SpecHash(p, back.search)
	if err != nil {
		t.Fatal(err)
	}
	if h1 != h2 {
		t.Fatalf("spec hash changed across search-config round trip: %s vs %s", h1, h2)
	}
}
