package validate

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spatialgen"
)

// FuzzSpatialInterp: the Spatial interpreter parses artifact text that
// reaches it from a daemon's store and from the CLI's artifact mode, so
// hostile text must come back as an error, never a panic, and a program
// it accepts must classify every probe into one of its declared classes
// or refuse with an error. Seeded from spatialgen's goldens and the
// artifacts of this package's four test models (which normalize, wider
// and deeper than the goldens); `make fuzz-spatial` runs it.
func FuzzSpatialInterp(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "spatialgen", "testdata", "*.golden"))
	if len(seeds) == 0 {
		f.Fatal("no seed artifacts")
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	for _, m := range allModels() {
		prog, err := spatialgen.Generate(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(prog.Source)
	}
	f.Fuzz(func(t *testing.T, src string) {
		s, err := NewSpatialInterp(src)
		if err != nil {
			return
		}
		if s.inputs < 1 || s.outputs < 1 {
			t.Fatalf("accepted an artifact of %d inputs and %d outputs", s.inputs, s.outputs)
		}
		// A width the parser has no table to hold against (a leaf-only
		// tree) is probed with a refused short vector only: a vector of
		// the declared width is the caller's to allocate.
		if s.inputs > 1<<12 {
			if _, err := s.Classify(make([]float64, 1)); err == nil {
				t.Fatalf("a 1-wide vector classified on a %d-input artifact", s.inputs)
			}
			return
		}
		for _, v := range []float64{0, 0.5, -0.5, 1e9, -1e9, math.NaN(), math.Inf(1)} {
			x := make([]float64, s.inputs)
			for i := range x {
				x[i] = v * float64(1-2*(i%2))
			}
			c, err := s.Classify(x)
			if err == nil && (c < 0 || c >= s.outputs) {
				t.Fatalf("class %d outside the artifact's %d outputs for input %v", c, s.outputs, x)
			}
		}
	})
}

// TestSpatialInterpRefusesImpossibleShapes: each golden, edited into a
// program no model could compile to, must be refused at parse time
// rather than index out of range (or answer out of range) in Classify.
func TestSpatialInterpRefusesImpossibleShapes(t *testing.T) {
	golden := func(name string) string {
		src, err := os.ReadFile(filepath.Join("..", "spatialgen", "testdata", name+".spatial.golden"))
		if err != nil {
			t.Fatal(err)
		}
		return string(src)
	}
	for _, tc := range []struct{ name, golden, from, to string }{
		{"no outputs", "depth1", "outputs=2", "outputs=0"},
		{"inputs overflow", "depth1", "inputs=2", "inputs=99999999999999999999"},
		{"leaf class past outputs", "single_leaf", "decision = 1", "decision = 2"},
		{"mux feature past inputs", "depth1", "norm(1)", "norm(2)"},
		{"negative mux feature", "depth1", "norm(1)", "norm(-1)"},
		{"LUT size overflows to empty", "single_class_kmeans", "LUT[T](1, 2)(0.75, -0.5)", "LUT[T](4294967296, 4294967296)()"},
		{"zero-row LUT", "single_class_svm", "LUT[T](1)(0.125)", "LUT[T](0)()"},
		{"centroids wider than inputs", "single_class_kmeans", "LUT[T](1, 2)(0.75, -0.5)", "LUT[T](1, 3)(0.75, -0.5, 1)"},
		{"hyperplanes wider than inputs", "single_class_svm", "LUT[T](1, 2)(0.5, -0.25)", "LUT[T](1, 3)(0.5, -0.25, 1)"},
		{"layer wider than inputs", "single_class_dnn", "LUT[T](1, 2)(0.5, -0.25)", "LUT[T](1, 3)(0.5, -0.25, 1)"},
		{"layers end past outputs", "single_class_dnn", "w0 = LUT[T](1, 2)(0.5, -0.25)\n    val b0 = LUT[T](1)(0.125)",
			"w0 = LUT[T](2, 2)(0.5, -0.25, 1, 1)\n    val b0 = LUT[T](2)(0.125, 0)"},
	} {
		src := golden(tc.golden)
		bad := strings.Replace(src, tc.from, tc.to, 1)
		if bad == src {
			t.Fatalf("%s: edit %q did not apply", tc.name, tc.from)
		}
		if _, err := NewSpatialInterp(src); err != nil {
			t.Fatalf("%s: golden refused: %v", tc.name, err)
		}
		if _, err := NewSpatialInterp(bad); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
