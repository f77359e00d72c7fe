package homunculus

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/alchemy"
	"repro/internal/core"
)

// TestSearchArtifactsPinned: the search stage's inner loops (tree
// growing, surrogate fits, tensor kernels, scoring) may be reorganised
// for speed but must not move one byte of what a spec compiles to. One
// small spec per target with every supported family searched (the SVM
// wins those), plus the tree and DNN families alone so that the code
// that was reorganised decides the bytes. The digests are of the
// artifact document and were recorded at the commit before the
// presorted-CART change; the two Tofino ones were re-recorded when the
// MAT verdict became a count of the emitted P4, which moved the P4 text
// and the verdict's entries but not the model, metric, tables or
// latency.
func TestSearchArtifactsPinned(t *testing.T) {
	for _, tc := range []struct {
		platform   func() *alchemy.Platform
		algorithms []string
		want       string
	}{
		{alchemy.Taurus, nil, "8ea772fb10fb1151c4a699f937ed4eed9e8de07b0e9095fa8e666c405708ec57"},
		{alchemy.Tofino, nil, "cc078da52d2c2ffb70665c2a6d8849e7584b7ab113f9f3aa0dae9772b5b2f1db"},
		{alchemy.FPGA, nil, "77ac34e9dafdf4aafa3378bd8cffb5bd8ec30ef321737626863f78a127d8cf4d"},
		{alchemy.Taurus, []string{"dtree"}, "89631c68e09c2376cacf65e934c73dd2480a5e9656d464fe47368caab42cb93f"},
		{alchemy.Tofino, []string{"dtree"}, "59f50d366466c156a93d0488c5105ec23acfea4b8cbfb5c1ee2b156dd4290443"},
		{alchemy.FPGA, []string{"dtree"}, "eb9896c15ca2c572e7e0a6cb2a9545aca581e1e87b3bbe511cbb7a3d9b530476"},
		{alchemy.Taurus, []string{"dnn"}, "4a921c1570e3f5b6827db5dbd5fa55b5228c3c57617e45c2d2c6c0dbea1b91d0"},
		{alchemy.FPGA, []string{"dnn"}, "81556b9976fc24f222a1a81eac1b6143d7ec5ba49d5f55b128448e36d724eb77"},
	} {
		checkPinned(t, tc.platform(), tc.algorithms, fastConfig(), tc.want)
	}
	// fastConfig's 3+3 evaluations never reach the BO's fourth iteration,
	// where a suggestion and the uniform sample after it train
	// concurrently. The DNN family at the default budget (5 warm-up
	// points, 15 iterations) runs every kind of evaluation group; its
	// digest was recorded while the family's evaluations still ran one
	// at a time.
	full := fastConfig()
	full.BO.InitSamples, full.BO.Iterations = 5, 15
	checkPinned(t, alchemy.Taurus(), []string{"dnn"}, full, "86dd5ab895e4225c00b5a190b028743df59c85ce0a18c4ee0001cdbbc82bf67d")
}

// checkPinned compiles the pinned spec on p and compares the artifact
// document's digest with want.
func checkPinned(t *testing.T, p *alchemy.Platform, algorithms []string, cfg core.SearchConfig, want string) {
	t.Helper()
	p.Schedule(alchemy.NewModel(alchemy.ModelSpec{Name: "pinned", Algorithms: algorithms, DataLoader: sampleLoader(23)}))
	pipe, err := Generate(context.Background(), p, WithSearchConfig(cfg), WithSeed(5))
	if err != nil {
		t.Fatalf("%s: %v", p.Kind, err)
	}
	doc, err := MarshalPipeline(pipe)
	if err != nil {
		t.Fatalf("%s: %v", p.Kind, err)
	}
	sum := sha256.Sum256(doc)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%s %v (%s, metric %v, %d+%d BO evaluations): artifact sha256 = %s; the parent compiled %s",
			p.Kind, algorithms, pipe.Apps[0].Algorithm, pipe.Apps[0].Metric, cfg.BO.InitSamples, cfg.BO.Iterations, got, want)
	}
}
