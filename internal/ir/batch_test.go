package ir

// Differential coverage of the batch kernel: Predictor.ClassifyBatch
// against Model.InferQ, row by row, for every family, activation, batch
// size around the tile width, adversarial features and a row of the
// wrong width at every position — plus a native fuzz target over the
// same comparison. Each check runs once per dense tile kernel the host
// can execute (forEachKernel).

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
	"repro/internal/tensor"
)

// forEachKernel calls f once per dense tile kernel this host can run —
// the portable dotTile, and tileAVX2 where the CPU has AVX2 — with
// layerTile dispatching to it, and restores the dispatch afterwards.
func forEachKernel(f func(kernel string)) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, avx2 := range []bool{false, true} {
		if avx2 && !tensor.HasAVX2() {
			continue
		}
		useAVX2 = avx2
		f(kernelName())
	}
}

// kernelName names the tile kernel layerTile dispatches to.
func kernelName() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// checkBatch classifies xs through p.ClassifyBatch and compares every
// row, and the error disposition, with m.InferQ.
func checkBatch(t testing.TB, m *Model, p *Predictor, xs [][]float64) {
	t.Helper()
	out := make([]int, len(xs))
	for i := range out {
		out[i] = -7 // a value no path writes
	}
	err := p.ClassifyBatch(xs, out)
	bad := false
	for i, x := range xs {
		want, werr := m.InferQ(x)
		if werr != nil {
			want, bad = -1, true
		}
		if out[i] != want {
			t.Fatalf("%s n=%d row %d, kernel=%s: ClassifyBatch=%d InferQ=%d,%v (format %v, x=%v)",
				m.Name, len(xs), i, kernelName(), out[i], want, werr, m.Format, x)
		}
	}
	if (err != nil) != bad {
		t.Fatalf("%s n=%d, kernel=%s: ClassifyBatch err=%v, want an error iff a row is malformed (%v)", m.Name, len(xs), kernelName(), err, bad)
	}
}

// withActivation returns a fuzzed DNN whose layers all use act.
func withActivation(rng *rand.Rand, act string) *Model {
	m := fuzzDNN(rng)
	for li := range m.Layers {
		m.Layers[li].Activation = act
	}
	m.Name = "dnn-" + act
	return m
}

func TestPredictorBatchMatchesInferQ(t *testing.T) {
	forEachKernel(func(kernel string) {
		t.Run("kernel="+kernel, testPredictorBatchMatchesInferQ)
	})
}

func testPredictorBatchMatchesInferQ(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	var models []*Model
	for _, act := range propActivations {
		for trial := 0; trial < 6; trial++ {
			models = append(models, withActivation(rng, act))
		}
	}
	for trial := 0; trial < 12; trial++ {
		models = append(models, fuzzSVM(rng), fuzzKMeans(rng), fuzzDTree(rng))
	}
	// A bare leaf: the level-synchronous walk runs zero levels.
	models = append(models, &Model{Kind: DTree, Name: "leaf", Inputs: 2, Outputs: 4,
		Format: fixed.Q8_8, Tree: &TreeNode{Feature: -1, Class: 3}})
	for _, m := range models {
		p, err := NewPredictor(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		for n := 0; n <= 3*Tile+1; n++ {
			xs := make([][]float64, n)
			for i := range xs {
				xs[i] = fuzzInput(rng, m.Inputs)
			}
			checkBatch(t, m, p, xs)
			// One row of the wrong width at every position: that row is
			// -1, its neighbours — same tile included — are unharmed.
			for pos := range xs {
				good := xs[pos]
				xs[pos] = good[:rng.Intn(m.Inputs)]
				if rng.Intn(2) == 0 {
					xs[pos] = append(append([]float64{}, good...), 1)
				}
				checkBatch(t, m, p, xs)
				xs[pos] = good
			}
		}
		if err := p.ClassifyBatch(make([][]float64, 2), make([]int, 3)); err == nil {
			t.Fatalf("%s: a result slice of the wrong length must be refused", m.Name)
		}
	}
}

// TestPredictorBatchInterleavesWithClassify: the tile buffers and the
// single-vector buffers are separate, and neither path leaves state the
// other reads.
func TestPredictorBatchInterleavesWithClassify(t *testing.T) {
	forEachKernel(func(kernel string) {
		t.Run("kernel="+kernel, testPredictorBatchInterleavesWithClassify)
	})
}

func testPredictorBatchInterleavesWithClassify(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := fuzzDNN(rng)
	p, err := NewPredictor(m)
	if err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 2*Tile+3)
	for i := range xs {
		xs[i] = fuzzInput(rng, m.Inputs)
	}
	for round := 0; round < 20; round++ {
		checkBatch(t, m, p, xs[rng.Intn(len(xs)):])
		x := xs[rng.Intn(len(xs))]
		want, _ := m.InferQ(x)
		if got, err := p.Classify(x); err != nil || got != want {
			t.Fatalf("round %d: Classify=%d,%v InferQ=%d", round, got, err, want)
		}
	}
}

// FuzzPredictorBatch derives a model of each family and a batch from the
// fuzzer's bytes and checks ClassifyBatch against InferQ on every tile
// kernel. seed picks the models, n the batch size, raw the feature bit
// patterns (so NaN, ±Inf, subnormals and saturating magnitudes all
// occur), badRow a row to give the wrong width.
func FuzzPredictorBatch(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{}, uint8(0))
	f.Add(int64(2), uint8(1), []byte{0x7f, 0xf8, 0, 0, 0, 0, 0, 1}, uint8(0))           // NaN, n < Tile
	f.Add(int64(3), uint8(Tile), []byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 0}, uint8(3))        // +Inf, one full tile, a bad row in it
	f.Add(int64(4), uint8(Tile+1), []byte{0xff, 0xf0, 0, 0, 0, 0, 0, 0}, uint8(Tile+1)) // -Inf, bad row in the tail
	f.Add(int64(5), uint8(3*Tile+1), []byte{0x40, 0xc3, 0x88, 0, 0, 0, 0, 0}, uint8(0)) // 1e4: saturates Q8.8
	f.Add(int64(6), uint8(2*Tile), []byte{0x3f, 0x60, 0, 0, 0, 0, 0, 0, 0xbf, 0x60, 0, 0, 0, 0, 0, 0}, uint8(2*Tile))
	f.Add(int64(7), uint8(255), []byte{0, 0, 0, 0, 0, 0, 0, 1, 0x80, 0, 0, 0, 0, 0, 0, 0}, uint8(200)) // subnormal, -0
	f.Fuzz(func(t *testing.T, seed int64, n uint8, raw []byte, badRow uint8) {
		rng := rand.New(rand.NewSource(seed))
		for _, m := range []*Model{fuzzDNN(rng), fuzzSVM(rng), fuzzKMeans(rng), fuzzDTree(rng)} {
			p, err := NewPredictor(m)
			if err != nil {
				t.Fatal(err)
			}
			xs := make([][]float64, n)
			k := 0
			for i := range xs {
				xs[i] = make([]float64, m.Inputs)
				for j := range xs[i] {
					if len(raw) >= 8 {
						var bits uint64
						for b := 0; b < 8; b++ {
							bits = bits<<8 | uint64(raw[(k+b)%len(raw)])
						}
						k += 8
						// Vary repeats of a short pattern by position.
						xs[i][j] = math.Float64frombits(bits) * float64(1+(i+j)%3)
					} else {
						xs[i][j] = rng.NormFloat64() * 3
					}
				}
			}
			if badRow > 0 && int(badRow) <= len(xs) {
				xs[badRow-1] = xs[badRow-1][:m.Inputs-1]
			}
			forEachKernel(func(string) { checkBatch(t, m, p, xs) })
		}
	})
}
