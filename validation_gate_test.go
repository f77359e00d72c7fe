package homunculus

// Rollout-gate tests: an endpoint that opted into ValidateRollouts must
// refuse to serve an artifact that diverges from its model's reference
// semantics — the acceptance scenario is a deliberately corrupted
// emitted artifact (an injected codegen bug) caught at serve time.

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/p4gen"
	"repro/internal/spatialgen"
)

// gateTreeModel is a tiny dtree whose spatial artifact carries the
// literal threshold 0.375 — an exact Q8.8 value we can corrupt.
func gateTreeModel() *ir.Model {
	return &ir.Model{Kind: ir.DTree, Name: "gate_tree", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		Tree: &ir.TreeNode{Feature: 0, Threshold: 0.375,
			Left:  &ir.TreeNode{Feature: -1, Class: 0},
			Right: &ir.TreeNode{Feature: -1, Class: 1}}}
}

func gateSVMModel() *ir.Model {
	return &ir.Model{Kind: ir.SVM, Name: "gate_svm", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		SVM: &ir.SVMParams{
			W: [][]float64{{0.75, -1.5}, {-0.5, 1.125}},
			B: []float64{0.25, -0.125},
		}}
}

// gatePipeline builds an out-of-band pipeline shipping the platform's
// real emitted artifact for m, exactly as codegen would.
func gatePipeline(t *testing.T, platform string, m *ir.Model) *Pipeline {
	t.Helper()
	var src string
	switch platform {
	case "tofino":
		prog, err := p4gen.Generate(m)
		if err != nil {
			t.Fatalf("p4gen: %v", err)
		}
		src = prog.Source
	default:
		prog, err := spatialgen.Generate(m)
		if err != nil {
			t.Fatalf("spatialgen: %v", err)
		}
		src = prog.Source
	}
	return &Pipeline{Platform: platform, Apps: []AppResult{{Name: m.Name, Model: m, Code: src}}}
}

// corruptCode returns a copy of pipe whose shipped artifact text has old
// replaced by new — the injected codegen bug.
func corruptCode(t *testing.T, pipe *Pipeline, oldS, newS string) *Pipeline {
	t.Helper()
	mutated := strings.Replace(pipe.Apps[0].Code, oldS, newS, 1)
	if mutated == pipe.Apps[0].Code {
		t.Fatalf("corruption target %q not found in artifact:\n%s", oldS, pipe.Apps[0].Code)
	}
	out := *pipe
	out.Apps = append([]AppResult(nil), pipe.Apps...)
	out.Apps[0].Code = mutated
	return &out
}

// TestRolloutGateRefusesCorruptedSpatialArtifact injects a codegen bug —
// a silently shifted decision threshold in the emitted Spatial text —
// and requires the gate to refuse both endpoint creation and rollout,
// while clean artifacts and ungated endpoints keep working.
func TestRolloutGateRefusesCorruptedSpatialArtifact(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1})
	t.Cleanup(func() { _ = svc.Close() })

	clean := gatePipeline(t, "taurus", gateTreeModel())
	// The artifact still parses — the tree just tests a different
	// threshold than the model, which is exactly what a rounding bug in
	// the emitter would ship.
	corrupt := corruptCode(t, clean, "0.375", "0.25")

	if _, err := svc.CreateEndpointPipeline("gated", corrupt, EndpointOptions{Serving: ServingConfig{ValidateRollouts: true}}); !errors.Is(err, ErrValidationFailed) {
		t.Fatalf("corrupted create = %v, want ErrValidationFailed", err)
	}
	// The gate is opt-in: without the flag the same pipeline serves
	// (Classify runs the model, not the artifact — the flag is what
	// promises they agree).
	unguarded, err := svc.CreateEndpointPipeline("unguarded", corrupt, EndpointOptions{})
	if err != nil {
		t.Fatalf("ungated create: %v", err)
	}
	_ = unguarded.Close()

	ep, err := svc.CreateEndpointPipeline("gated", clean, EndpointOptions{Serving: ServingConfig{ValidateRollouts: true}})
	if err != nil {
		t.Fatalf("clean create: %v", err)
	}
	if !ep.ServingConfig().ValidateRollouts {
		t.Fatal("Config must report ValidateRollouts")
	}

	// Rollouts inherit the endpoint's gate.
	if _, err := ep.RolloutPipeline(corrupt, RolloutOptions{CanaryPercent: 25}); !errors.Is(err, ErrValidationFailed) {
		t.Fatalf("corrupted rollout = %v, want ErrValidationFailed", err)
	}
	// A refused rollout holds no slot: a clean one proceeds immediately.
	if _, err := ep.RolloutPipeline(clean, RolloutOptions{CanaryPercent: 25}); err != nil {
		t.Fatalf("clean rollout after refusal: %v", err)
	}
}

// TestRolloutGateRefusesCorruptedP4Artifact covers the tofino path: a
// negated weight in an emitted match-action entry.
func TestRolloutGateRefusesCorruptedP4Artifact(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1})
	t.Cleanup(func() { _ = svc.Close() })

	clean := gatePipeline(t, "tofino", gateSVMModel())
	corrupt := corruptCode(t, clean, "(_) : mac_0(", "(_) : mac_0(-")

	if _, err := svc.CreateEndpointPipeline("p4gated", corrupt, EndpointOptions{Serving: ServingConfig{ValidateRollouts: true}}); !errors.Is(err, ErrValidationFailed) {
		t.Fatalf("corrupted create = %v, want ErrValidationFailed", err)
	}
	if _, err := svc.CreateEndpointPipeline("p4gated", clean, EndpointOptions{Serving: ServingConfig{ValidateRollouts: true}}); err != nil {
		t.Fatalf("clean create: %v", err)
	}
}

// TestRolloutGateRefusesUnparseableArtifact: truncation (a partial
// write, a bad merge) is as refused as a semantic divergence.
func TestRolloutGateRefusesUnparseableArtifact(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1})
	t.Cleanup(func() { _ = svc.Close() })

	pipe := gatePipeline(t, "taurus", gateTreeModel())
	pipe.Apps[0].Code = pipe.Apps[0].Code[:len(pipe.Apps[0].Code)/3]
	if _, err := svc.CreateEndpointPipeline("trunc", pipe, EndpointOptions{Serving: ServingConfig{ValidateRollouts: true}}); !errors.Is(err, ErrValidationFailed) {
		t.Fatalf("truncated create = %v, want ErrValidationFailed", err)
	}
}

// TestRolloutGateHonorsRecordedVerdict: a pipeline whose compile-time
// validation verdict already failed is refused without re-checking.
func TestRolloutGateHonorsRecordedVerdict(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1})
	t.Cleanup(func() { _ = svc.Close() })

	pipe := gatePipeline(t, "taurus", gateTreeModel())
	pipe.Apps[0].Validation = &ValidationReport{Evaluators: []string{"ir", "spatial"}, Inputs: 10, Divergences: 3}
	if _, err := svc.CreateEndpointPipeline("verdict", pipe, EndpointOptions{Serving: ServingConfig{ValidateRollouts: true}}); !errors.Is(err, ErrValidationFailed) {
		t.Fatalf("recorded-diverging create = %v, want ErrValidationFailed", err)
	}
}

// TestRolloutGateSurvivesRestart: the flag persists in the endpoint
// manifest, so a restored endpoint still refuses a diverging rollout.
func TestRolloutGateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)

	clean := gatePipeline(t, "taurus", gateTreeModel())
	if _, err := svc.CreateEndpointPipeline("gated", clean, EndpointOptions{Serving: ServingConfig{ValidateRollouts: true}}); err != nil {
		t.Fatalf("create: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := mustOpen(t, dir, nil)
	t.Cleanup(func() { _ = svc2.Close() })
	ep, ok := svc2.Endpoint("gated")
	if !ok {
		t.Fatalf("endpoint not restored: %+v", svc2.Recovery())
	}
	if !ep.ServingConfig().ValidateRollouts {
		t.Fatal("ValidateRollouts lost across restart")
	}
	corrupt := corruptCode(t, clean, "0.375", "0.25")
	if _, err := ep.RolloutPipeline(corrupt, RolloutOptions{CanaryPercent: 25}); !errors.Is(err, ErrValidationFailed) {
		t.Fatalf("post-restart corrupted rollout = %v, want ErrValidationFailed", err)
	}
}
