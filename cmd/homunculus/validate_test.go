package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/p4gen"
	"repro/internal/spatialgen"
	"repro/internal/validate"
)

// cliTreeModel mirrors the gate-test fixture: the literal 0.375 in the
// emitted artifact is the corruption target.
func cliTreeModel() *ir.Model {
	return &ir.Model{Kind: ir.DTree, Name: "cli_tree", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		Tree: &ir.TreeNode{Feature: 0, Threshold: 0.375,
			Left:  &ir.TreeNode{Feature: -1, Class: 0},
			Right: &ir.TreeNode{Feature: -1, Class: 1}}}
}

// writeModelAndArtifact emits m's artifact for lang ("p4"/"spatial") into
// dir and returns (modelPath, codePath).
func writeModelAndArtifact(t *testing.T, dir, lang string, m *ir.Model) (string, string) {
	t.Helper()
	modelPath := filepath.Join(dir, m.Name+".model.json")
	mf, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WriteJSON(mf); err != nil {
		t.Fatal(err)
	}
	mf.Close()
	var src, ext string
	switch lang {
	case "p4":
		prog, err := p4gen.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		src, ext = prog.Source, ".p4"
	default:
		prog, err := spatialgen.Generate(m)
		if err != nil {
			t.Fatal(err)
		}
		src, ext = prog.Source, ".spatial"
	}
	codePath := filepath.Join(dir, m.Name+ext)
	if err := os.WriteFile(codePath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return modelPath, codePath
}

// corruptFile replaces old with new inside path, failing if absent.
func corruptFile(t *testing.T, path, oldS, newS string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(raw), oldS, newS, 1)
	if mutated == string(raw) {
		t.Fatalf("corruption target %q not found in %s", oldS, path)
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestValidateArtifactMode is the CLI acceptance path: a clean emitted
// artifact validates, a deliberately corrupted one exits nonzero with a
// minimized repro JSON, and replaying that repro against the (correct)
// generators reports the bug as absent there.
func TestValidateArtifactMode(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "out")
	modelPath, codePath := writeModelAndArtifact(t, dir, "spatial", cliTreeModel())

	if err := runValidateArtifact(config{out: io.Discard, model: modelPath, code: codePath, outDir: out}); err != nil {
		t.Fatalf("clean artifact: %v", err)
	}

	// Inject the codegen bug: a silently shifted threshold.
	corruptFile(t, codePath, "0.375", "0.25")
	err := runValidateArtifact(config{out: io.Discard, model: modelPath, code: codePath, outDir: out})
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("corrupted artifact must diverge, got: %v", err)
	}

	reproPath := filepath.Join(out, "cli_tree.repro.json")
	r, rerr := validate.ReadReproFile(reproPath)
	if rerr != nil {
		t.Fatalf("repro must be written and parseable: %v", rerr)
	}
	if len(r.Input) == 0 || len(r.Results) < 2 {
		t.Fatalf("repro not populated: %+v", r)
	}
	// The repro replays against regenerated (correct) artifacts, so the
	// injected corruption does not reproduce there — exit zero.
	if err := runReproReplay(config{out: io.Discard, repro: reproPath}); err != nil {
		t.Fatalf("replay against correct codegen: %v", err)
	}
}

// TestValidateArtifactModeP4 covers the tofino interpreter path with a
// negated match-action weight.
func TestValidateArtifactModeP4(t *testing.T) {
	dir := t.TempDir()
	m := &ir.Model{Kind: ir.SVM, Name: "cli_svm", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		SVM: &ir.SVMParams{W: [][]float64{{0.75, -1.5}, {-0.5, 1.125}}, B: []float64{0.25, -0.125}}}
	modelPath, codePath := writeModelAndArtifact(t, dir, "p4", m)

	if err := runValidateArtifact(config{out: io.Discard, model: modelPath, code: codePath, outDir: filepath.Join(dir, "out")}); err != nil {
		t.Fatalf("clean artifact: %v", err)
	}
	corruptFile(t, codePath, "(_) : mac_0(", "(_) : mac_0(-")
	err := runValidateArtifact(config{out: io.Discard, model: modelPath, code: codePath, outDir: filepath.Join(dir, "out")})
	if err == nil || !strings.Contains(err.Error(), "diverges") {
		t.Fatalf("corrupted p4 artifact must diverge, got: %v", err)
	}
}

// TestValidateArtifactModeErrors: unparseable artifacts and unknown
// languages fail loudly instead of passing vacuously.
func TestValidateArtifactModeErrors(t *testing.T) {
	dir := t.TempDir()
	modelPath, codePath := writeModelAndArtifact(t, dir, "spatial", cliTreeModel())

	// Truncation is refused as unparseable.
	raw, _ := os.ReadFile(codePath)
	if err := os.WriteFile(codePath, raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runValidateArtifact(config{out: io.Discard, model: modelPath, code: codePath, outDir: dir}); err == nil {
		t.Fatal("truncated artifact must fail")
	}

	// Unknown extension without -platform cannot pick an interpreter.
	other := filepath.Join(dir, "artifact.bin")
	if err := os.WriteFile(other, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runValidateArtifact(config{out: io.Discard, model: modelPath, code: other, outDir: dir}); err == nil || !strings.Contains(err.Error(), "infer") {
		t.Fatalf("unknown extension: %v", err)
	}
	// ...but the -platform override resolves it.
	if err := runValidateArtifact(config{out: io.Discard, model: modelPath, code: other, platform: "taurus", outDir: dir}); err != nil {
		t.Fatalf("platform override: %v", err)
	}
	// The intact artifact isolates the refusal: only the platform is wrong.
	if err := runValidateArtifact(config{out: io.Discard, model: modelPath, code: other, platform: "mat", outDir: dir}); err == nil || !strings.Contains(err.Error(), `platform "mat"`) {
		t.Fatalf("unknown platform must be rejected by name, got: %v", err)
	}
	if err := runValidateArtifact(config{out: io.Discard, model: modelPath, code: "", outDir: dir}); err == nil {
		t.Fatal("missing -code must be rejected")
	}
}

// TestValidateSpecMode compiles a spec with -validate: the verdict rides
// the run and a clean compilation exits zero.
func TestValidateSpecMode(t *testing.T) {
	cfg := config{out: io.Discard, spec: "testdata/tc_tofino.json", outDir: t.TempDir(), validate: true}
	if _, err := run(context.Background(), cfg); err != nil {
		t.Fatalf("validated compile: %v", err)
	}
}
