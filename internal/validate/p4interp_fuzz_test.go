package validate

import (
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzP4Interp: the P4 interpreter parses artifact text that reaches it
// from a daemon's store and from the CLI's artifact mode, so hostile
// text must come back as an error, never a panic, and a program it
// accepts must classify every probe into one of its declared classes or
// refuse with an error. Seeded from p4gen's goldens and the legacy
// decide-table fixtures; `make fuzz-p4` runs it.
func FuzzP4Interp(f *testing.F) {
	goldens, _ := filepath.Glob(filepath.Join("..", "p4gen", "testdata", "*.p4.golden"))
	legacy, _ := filepath.Glob(filepath.Join("testdata", "legacy_*.p4"))
	seeds := append(goldens, legacy...)
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
	f.Fuzz(func(t *testing.T, src string) {
		p, err := NewP4Interp(src)
		if err != nil {
			return
		}
		for _, v := range []float64{0, 0.5, -0.5, 1e9, -1e9, math.NaN(), math.Inf(1)} {
			x := make([]float64, p.Inputs())
			for i := range x {
				x[i] = v * float64(1-2*(i%2))
			}
			c, err := p.Classify(x)
			if err == nil && (c < 0 || c >= p.outputs) {
				t.Fatalf("class %d outside the artifact's %d outputs for input %v", c, p.outputs, x)
			}
		}
	})
}
