package ir

import (
	"errors"
	"strings"
	"testing"
)

// Documents that are well formed JSON and carry the right counts, but
// whose parameters would make an evaluator index outside the input, the
// class range or the tree. Each must be refused when it is loaded.
const (
	treeDoc   = `{"version":1,"kind":"dtree","name":"t","inputs":2,"outputs":2,"int_bits":7,"frac_bits":8,"tree":{"feature":1,"threshold":0.5,"class":0,"left":{"feature":-1,"class":0},"right":{"feature":-1,"class":1}}}`
	svmDoc    = `{"version":1,"kind":"svm","name":"s","inputs":2,"outputs":2,"int_bits":7,"frac_bits":8,"svm_w":[[0.5,-0.5],[0.25,0.75]],"svm_b":[0,0.1]}`
	kmeansDoc = `{"version":1,"kind":"kmeans","name":"k","inputs":2,"outputs":2,"int_bits":7,"frac_bits":8,"centroids":[[0,0],[1,1]]}`
)

// refused loads the valid document base, then base with old replaced by
// new, which must fail as a *ShapeError naming where.
func refused(t *testing.T, base, old, new, where string) {
	t.Helper()
	m, err := ReadJSON(strings.NewReader(base))
	if err != nil {
		t.Fatalf("the valid document is refused: %v", err)
	}
	if _, err := m.InferQ([]float64{0.3, 0.7}); err != nil {
		t.Fatal(err)
	}
	hostile := strings.Replace(base, old, new, 1)
	if hostile == base {
		t.Fatalf("%q is not in the document", old)
	}
	m, err = ReadJSON(strings.NewReader(hostile))
	var shape *ShapeError
	if !errors.As(err, &shape) {
		t.Fatalf("%s: loaded as %+v (err %v), want a *ShapeError", hostile, m, err)
	}
	if shape.Where != where {
		t.Fatalf("%s: the error names %q, want %q (%v)", hostile, shape.Where, where, err)
	}
}

func TestValidateRefusesTreeFeatureOutOfRange(t *testing.T) {
	refused(t, treeDoc, `"feature":1,`, `"feature":2,`, "tree")
}

func TestValidateRefusesTreeNodeWithoutChild(t *testing.T) {
	refused(t, treeDoc, `,"right":{"feature":-1,"class":1}`, ``, "tree.right")
}

func TestValidateRefusesLeafClassOutOfRange(t *testing.T) {
	refused(t, treeDoc, `"right":{"feature":-1,"class":1}`, `"right":{"feature":-1,"class":2}`, "tree.right")
	refused(t, treeDoc, `"left":{"feature":-1,"class":0}`, `"left":{"feature":-1,"class":-1}`, "tree.left")
}

func TestValidateRefusesSVMBiasCount(t *testing.T) {
	refused(t, svmDoc, `"svm_b":[0,0.1]`, `"svm_b":[0]`, "svm")
}

func TestValidateRefusesSVMRowLength(t *testing.T) {
	refused(t, svmDoc, `[0.25,0.75]`, `[0.25]`, "svm.w[1]")
	refused(t, svmDoc, `[0.5,-0.5]`, `[0.5,-0.5,1]`, "svm.w[0]")
}

func TestValidateRefusesCentroidLength(t *testing.T) {
	refused(t, kmeansDoc, `[1,1]`, `[1,1,1]`, "centroids[1]")
	refused(t, kmeansDoc, `[0,0]`, `[0]`, "centroids[0]")
}

func TestValidateRefusesNormalizerLength(t *testing.T) {
	withNorm := strings.Replace(kmeansDoc, `"frac_bits":8,`, `"frac_bits":8,"mean":[0.1,0.2],"std":[1,2],`, 1)
	refused(t, withNorm, `"std":[1,2]`, `"std":[1]`, "std")
	refused(t, withNorm, `,"std":[1,2]`, ``, "std")
	refused(t, withNorm, `"mean":[0.1,0.2],"std":[1,2]`, `"mean":[0.1],"std":[1]`, "mean")
}
