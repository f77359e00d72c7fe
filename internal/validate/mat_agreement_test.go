package validate

// The Tofino verdict counts the program p4gen emits. These tests hold
// it to that: the table and entry counts are read back from the
// artifact text (not from any structure the generator returns) and must
// equal the verdict the search budgeted against. They also keep the
// artifacts older generators wrote executable: the rollout gate still
// sees those from a daemon's store.

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/fixed"
	"repro/internal/ir"
)

// goldenModels are the models p4gen's golden artifacts were emitted
// from (internal/p4gen/golden_test.go), keyed by the golden's name.
func goldenModels() []*ir.Model {
	return []*ir.Model{
		{Kind: ir.DTree, Name: "single_leaf", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
			Tree: &ir.TreeNode{Feature: -1, Class: 1}},
		{Kind: ir.DTree, Name: "depth1", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
			Tree: &ir.TreeNode{Feature: 1, Threshold: 0.5,
				Left:  &ir.TreeNode{Feature: -1, Class: 0},
				Right: &ir.TreeNode{Feature: -1, Class: 1}}},
		{Kind: ir.SVM, Name: "single_class_svm", Inputs: 2, Outputs: 1, Format: fixed.Q8_8,
			SVM: &ir.SVMParams{W: [][]float64{{0.5, -0.25}}, B: []float64{0.125}}},
		{Kind: ir.KMeans, Name: "single_class_kmeans", Inputs: 2, Outputs: 1, Format: fixed.Q8_8,
			Centroids: [][]float64{{0.75, -0.5}}},
	}
}

var (
	countTableRE = regexp.MustCompile(`^\s*table\s+\w+\s*\{`)
	countEntryRE = regexp.MustCompile(`^\s*\(.*\)\s*:\s*\w+\(.*\);`)
)

// countP4 reads the table count and the largest per-table entry count
// off P4 source text: every `table` block is a table, every
// `(key) : action(...);` line inside it an entry.
func countP4(src string) (tables, entries int) {
	cur := -1
	for _, line := range strings.Split(src, "\n") {
		switch {
		case countTableRE.MatchString(line):
			tables++
			cur = 0
		case cur >= 0 && countEntryRE.MatchString(line):
			cur++
			entries = max(entries, cur)
		}
	}
	return tables, entries
}

// checkAgreement compares the counted artifact with the verdict.
func checkAgreement(t *testing.T, target backend.Target, m *ir.Model, src string) {
	t.Helper()
	v, err := target.Estimate(m)
	if err != nil {
		t.Fatalf("%s: estimate: %v", m.Name, err)
	}
	tables, entries := countP4(src)
	if float64(tables) != v.Metrics["tables"] || float64(entries) != v.Metrics["entries"] {
		t.Errorf("%s (%s): artifact has %d tables, at most %d entries per table; verdict says tables=%v entries=%v",
			m.Name, m.Kind, tables, entries, v.Metrics["tables"], v.Metrics["entries"])
	}
}

func TestMATVerdictCountsArtifact(t *testing.T) {
	target := backend.NewMATTarget(0)
	kinds := map[ir.Kind]int{}
	for seed := uint64(1); seed <= 3000; seed++ {
		m := GenModel(seed)
		if !target.Supports(m.Kind) {
			continue
		}
		src, err := target.Generate(m)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkAgreement(t, target, m, src)
		kinds[m.Kind]++
	}
	for _, k := range []ir.Kind{ir.SVM, ir.KMeans, ir.DTree} {
		if kinds[k] == 0 {
			t.Fatalf("no %s model among the seeds: %v", k, kinds)
		}
	}
	for _, m := range goldenModels() {
		src, err := os.ReadFile(filepath.Join("..", "p4gen", "testdata", m.Name+".p4.golden"))
		if err != nil {
			t.Fatal(err)
		}
		checkAgreement(t, target, m, string(src))
	}
}

// TestLegacyDecideArtifactsExecute: the SVM and KMeans artifacts p4gen
// wrote before the arg-max/arg-min moved into the last table's action
// carry an entry-less `svm_decide`/`kmeans_decide` table. Such artifacts
// may sit in a daemon's store and still pass the rollout gate, so they
// must keep parsing and classifying bit-identically with InferQ.
func TestLegacyDecideArtifactsExecute(t *testing.T) {
	byName := map[string]*ir.Model{}
	for _, m := range goldenModels() {
		byName[m.Name] = m
	}
	for _, name := range []string{"single_class_svm", "single_class_kmeans"} {
		src, err := os.ReadFile(filepath.Join("testdata", "legacy_"+name+".p4"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), "_decide.apply();") {
			t.Fatalf("%s: fixture lost its decide table", name)
		}
		interp, err := Interpreter(".p4", string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := byName[name]
		inputs := append(Traffic(m, 7, 256), BoundaryInputs(m)...)
		rep := Check([]Evaluator{{Name: "ir", Classify: m.InferQ}, interp}, inputs)
		if !rep.OK() {
			t.Fatalf("%s: %s", name, rep)
		}
	}
}
