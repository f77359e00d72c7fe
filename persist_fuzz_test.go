package homunculus

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/jsonscan"
)

// oracleUnmarshalPipeline is the decoder UnmarshalPipeline replaced: the
// pipeline document with each model kept as raw bytes, then every model
// decoded again by encoding/json and converted as ir.ReadJSON did.
// FuzzUnmarshalPipeline holds the one-pass decoder to it.
func oracleUnmarshalPipeline(raw []byte) (*Pipeline, bool) {
	var doc struct {
		Version  int    `json:"version"`
		Platform string `json:"platform"`
		Apps     []struct {
			Name       string            `json:"name"`
			Algorithm  string            `json:"algorithm,omitempty"`
			Metric     float64           `json:"metric"`
			Model      json.RawMessage   `json:"model,omitempty"`
			Verdict    core.Verdict      `json:"verdict"`
			Code       string            `json:"code,omitempty"`
			Validation *ValidationReport `json:"validation,omitempty"`
		} `json:"apps"`
		Composition *core.Verdict `json:"composition,omitempty"`
	}
	if json.Unmarshal(raw, &doc) != nil || doc.Version != pipelineFormatVersion {
		return nil, false
	}
	pipe := &Pipeline{Platform: doc.Platform, Composition: doc.Composition}
	for _, ad := range doc.Apps {
		app := AppResult{Name: ad.Name, Algorithm: ad.Algorithm, Metric: ad.Metric, Verdict: ad.Verdict, Code: ad.Code, Validation: ad.Validation}
		if len(ad.Model) > 0 {
			m, ok := oracleReadModel(ad.Model)
			if !ok {
				return nil, false
			}
			app.Model = m
		}
		pipe.Apps = append(pipe.Apps, app)
	}
	return pipe, true
}

type oracleNode struct {
	Feature   int         `json:"feature"`
	Threshold float64     `json:"threshold,omitempty"`
	Class     int         `json:"class"`
	Left      *oracleNode `json:"left,omitempty"`
	Right     *oracleNode `json:"right,omitempty"`
}

func (n *oracleNode) tree() *ir.TreeNode {
	if n == nil {
		return nil
	}
	return &ir.TreeNode{Feature: n.Feature, Threshold: n.Threshold, Class: n.Class, Left: n.Left.tree(), Right: n.Right.tree()}
}

// oracleReadModel is ir.ReadJSON as it was before the model document
// decoded in the pipeline's pass.
func oracleReadModel(raw []byte) (*ir.Model, bool) {
	var jm struct {
		Version      int       `json:"version"`
		Kind         string    `json:"kind"`
		Name         string    `json:"name"`
		Inputs       int       `json:"inputs"`
		Outputs      int       `json:"outputs"`
		IntBits      int       `json:"int_bits"`
		FracBits     int       `json:"frac_bits"`
		FeatureNames []string  `json:"feature_names,omitempty"`
		Mean         []float64 `json:"mean,omitempty"`
		Std          []float64 `json:"std,omitempty"`
		Layers       []struct {
			In         int         `json:"in"`
			Out        int         `json:"out"`
			W          [][]float64 `json:"w"`
			B          []float64   `json:"b"`
			Activation string      `json:"activation"`
		} `json:"layers,omitempty"`
		SVMW      [][]float64 `json:"svm_w,omitempty"`
		SVMB      []float64   `json:"svm_b,omitempty"`
		Centroids [][]float64 `json:"centroids,omitempty"`
		Tree      *oracleNode `json:"tree,omitempty"`
	}
	if json.NewDecoder(bytes.NewReader(raw)).Decode(&jm) != nil || jm.Version != 1 {
		return nil, false
	}
	kind, err := ir.ParseKind(jm.Kind)
	if err != nil {
		return nil, false
	}
	m := &ir.Model{
		Kind: kind, Name: jm.Name, Inputs: jm.Inputs, Outputs: jm.Outputs,
		Format:       fixed.Format{IntBits: jm.IntBits, FracBits: jm.FracBits},
		FeatureNames: jm.FeatureNames, Mean: jm.Mean, Std: jm.Std, Centroids: jm.Centroids,
	}
	for _, l := range jm.Layers {
		m.Layers = append(m.Layers, ir.Layer{In: l.In, Out: l.Out, W: l.W, B: l.B, Activation: l.Activation})
	}
	if jm.SVMW != nil {
		m.SVM = &ir.SVMParams{W: jm.SVMW, B: jm.SVMB}
	}
	m.Tree = jm.Tree.tree()
	return m, m.Validate() == nil
}

// familyPipelines is one artifact per model family, and the fixture.
func familyPipelines(t testing.TB) [][]byte {
	t.Helper()
	pipe := persistTestPipeline()
	pipe.Apps = append(pipe.Apps,
		AppResult{Name: "s", Algorithm: "svm", Metric: 0.5, Model: &ir.Model{
			Kind: ir.SVM, Name: "s", Inputs: 3, Outputs: 2, Format: fixed.Q8_8, FeatureNames: []string{"a<b", "é", "c"},
			SVM: &ir.SVMParams{W: [][]float64{{1, -2.5, 3e-9}, {4, 5, 0.1}}, B: []float64{0.5, -0.5}}}},
		AppResult{Name: "k", Algorithm: "kmeans", Metric: 0.25, Model: &ir.Model{
			Kind: ir.KMeans, Name: "k", Inputs: 2, Outputs: 2, Format: fixed.Q4_12,
			Centroids: [][]float64{{1, 2}, {-3, 1e-300}}}},
	)
	var out [][]byte
	for _, p := range []*Pipeline{pipe, {Platform: "tofino", Apps: pipe.Apps[:1]}, {Platform: "fpga", Apps: pipe.Apps[1:2]}} {
		raw, err := MarshalPipeline(p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	fixture, err := os.ReadFile("testdata/pipeline_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	return append(out, fixture)
}

// FuzzUnmarshalPipeline differentially checks the one-pass artifact
// decoder against the two-decoder one it replaced: it never accepts what
// the old one refuses, and when both accept, the two pipelines encode to
// the same bytes.
func FuzzUnmarshalPipeline(f *testing.F) {
	for _, raw := range familyPipelines(f) {
		f.Add(raw)
	}
	fixture, err := os.ReadFile("testdata/pipeline_v1.json")
	if err != nil {
		f.Fatal(err)
	}
	doc := string(fixture)
	tree := doc[strings.Index(doc, `"model":{"version":1,"kind":"dtree"`)+len(`"model":`) : strings.Index(doc, `,"verdict"`)]
	for _, variant := range []string{
		strings.Replace(doc, `"model":`+tree, `"model":null`, 1),
		strings.Replace(doc, `"model":`+tree, `"model":`+tree+`,"model":{"version":1}`, 1),
		strings.Replace(doc, `"model":`+tree, `"model":{"version":1},"model":`+tree, 1),
		strings.Replace(doc, `"apps":[`, `"apps":[{"name":"x","model":`+tree+`}],"apps":[`, 1),
		strings.Replace(doc, `"kind":"dtree"`, `"KIND":"dtree","kind":"dnn"`, 1),
		strings.Replace(doc, `"mean":[0.1,0.2]`, `"mean":[0.1,0.2],"mean":[]`, 1),
		strings.Replace(doc, `"mean":[0.1,0.2]`, `"mean":[0.1,null]`, 1),
		strings.Replace(doc, `"w":[[0.5,-0.5],[0.25,0.75]]`, `"w":[[0.5,-0.5],[]]`, 1),
		strings.Replace(doc, `"inputs":2`, `"inputs":2.0`, 1),
		strings.Replace(doc, `"threshold":0.5`, `"threshold":5e-1`, 1),
		strings.Replace(doc, `"name":"tc"`, `"name":"t\u0063"`, 1),
	} {
		f.Add([]byte(variant))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		got, err := UnmarshalPipeline(raw)
		want, ok := oracleUnmarshalPipeline(raw)
		if err != nil {
			return
		}
		if !ok {
			t.Fatalf("accepted a document the two-pass decoder refuses:\n%s", raw)
		}
		a, aerr := MarshalPipeline(got)
		b, berr := MarshalPipeline(want)
		if aerr != nil || berr != nil || !bytes.Equal(a, b) {
			t.Fatalf("the decoders disagree (%v, %v):\n%s\nvs\n%s\nfrom\n%s", aerr, berr, a, b, raw)
		}
		for _, app := range got.Apps {
			inferDecoded(t, app.Model, raw)
		}
	})
}

// inferDecoded classifies one input, drawn from raw, with a model the
// decoder accepted: whatever passes validation must be safe to evaluate,
// and its class must be one the model declares.
func inferDecoded(t *testing.T, m *ir.Model, raw []byte) {
	t.Helper()
	if m == nil || m.Inputs > 1<<12 {
		return // a tree may declare any width; the input would only cost memory
	}
	x := make([]float64, m.Inputs)
	for i := range x {
		x[i] = float64(int8(raw[i%len(raw)])) / 16
	}
	class, err := m.InferQ(x)
	if err != nil || class < 0 || class >= m.Outputs {
		t.Fatalf("a decoded model classifies %v as %d of %d classes (%v):\n%s", x, class, m.Outputs, err, raw)
	}
}

// TestPipelineReadTakesMarshalledDocuments: what MarshalPipeline writes,
// for every model family, is decoded by the single pass — never handed
// to encoding/json — to the pipeline it was written from.
func TestPipelineReadTakesMarshalledDocuments(t *testing.T) {
	for _, raw := range familyPipelines(t) {
		var doc pipelineDoc
		if r := jsonscan.NewReader(raw); !doc.read(r) || !r.End() {
			t.Fatalf("the single pass declined:\n%s", raw)
		}
		got, err := UnmarshalPipeline(raw)
		if err != nil {
			t.Fatal(err)
		}
		again, err := MarshalPipeline(got)
		if err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("round trip moved the document (%v):\n%s\nvs\n%s", err, again, raw)
		}
	}
}
