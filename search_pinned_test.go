package homunculus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/alchemy"
)

// TestSearchArtifactsPinned: the search stage's inner loops (tree
// growing, surrogate fits, tensor kernels, scoring) may be reorganised
// for speed but must not move one byte of what a spec compiles to. One
// small spec per target with every supported family searched (the SVM
// wins those), plus the tree and DNN families alone so that the code
// that was reorganised decides the bytes. The digests are of the
// artifact document and were recorded at the commit before the
// presorted-CART change.
func TestSearchArtifactsPinned(t *testing.T) {
	for _, tc := range []struct {
		platform   func() *alchemy.Platform
		algorithms []string
		want       string
	}{
		{alchemy.Taurus, nil, "8ea772fb10fb1151c4a699f937ed4eed9e8de07b0e9095fa8e666c405708ec57"},
		{alchemy.Tofino, nil, "283fba1b236ab0c6bd53385103462f9a418f88b96b66975cc9562ea538feab4e"},
		{alchemy.FPGA, nil, "77ac34e9dafdf4aafa3378bd8cffb5bd8ec30ef321737626863f78a127d8cf4d"},
		{alchemy.Taurus, []string{"dtree"}, "89631c68e09c2376cacf65e934c73dd2480a5e9656d464fe47368caab42cb93f"},
		{alchemy.Tofino, []string{"dtree"}, "79f1eac53b263959283632337b0c415dbf60c67edf521f3e3fe1e56ad924e7e7"},
		{alchemy.FPGA, []string{"dtree"}, "eb9896c15ca2c572e7e0a6cb2a9545aca581e1e87b3bbe511cbb7a3d9b530476"},
		{alchemy.Taurus, []string{"dnn"}, "4a921c1570e3f5b6827db5dbd5fa55b5228c3c57617e45c2d2c6c0dbea1b91d0"},
		{alchemy.FPGA, []string{"dnn"}, "81556b9976fc24f222a1a81eac1b6143d7ec5ba49d5f55b128448e36d724eb77"},
	} {
		p := tc.platform()
		p.Schedule(alchemy.NewModel(alchemy.ModelSpec{Name: "pinned", Algorithms: tc.algorithms, DataLoader: sampleLoader(23)}))
		pipe, err := Generate(context.Background(), p, WithSearchConfig(fastConfig()), WithSeed(5))
		if err != nil {
			t.Fatalf("%s: %v", p.Kind, err)
		}
		doc, err := MarshalPipeline(pipe)
		if err != nil {
			t.Fatalf("%s: %v", p.Kind, err)
		}
		sum := sha256.Sum256(doc)
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s %v (%s, metric %v): artifact sha256 = %s; the parent compiled %s",
				p.Kind, tc.algorithms, pipe.Apps[0].Algorithm, pipe.Apps[0].Metric, got, tc.want)
		}
	}
}
