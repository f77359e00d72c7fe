package rf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/parallel"
)

func TestValidate(t *testing.T) {
	bad := []Config{
		{Trees: 0, MaxDepth: 1, MinLeaf: 1, Subsample: 1, Features: 1},
		{Trees: 1, MaxDepth: 0, MinLeaf: 1, Subsample: 1, Features: 1},
		{Trees: 1, MaxDepth: 1, MinLeaf: 0, Subsample: 1, Features: 1},
		{Trees: 1, MaxDepth: 1, MinLeaf: 1, Subsample: 0, Features: 1},
		{Trees: 1, MaxDepth: 1, MinLeaf: 1, Subsample: 1.5, Features: 1},
		{Trees: 1, MaxDepth: 1, MinLeaf: 1, Subsample: 1, Features: 0},
	}
	for i, c := range bad {
		if _, err := Train(c, [][]float64{{1}}, []float64{1}); err == nil {
			t.Fatalf("case %d must fail", i)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	c := DefaultConfig()
	if _, err := Train(c, nil, nil); err == nil {
		t.Fatal("empty set must fail")
	}
	if _, err := Train(c, [][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch must fail")
	}
	if _, err := Train(c, [][]float64{{1}, {1, 2}}, []float64{1, 2}); err == nil {
		t.Fatal("ragged rows must fail")
	}
}

func TestFitsSmoothFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 500
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		x[i] = []float64{a, b}
		y[i] = a*a + b // smooth target
	}
	f, err := Train(DefaultConfig(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	var sse, count float64
	for i := 0; i < 100; i++ {
		a, b := rng.Float64()*4-2, rng.Float64()*4-2
		pred := f.Predict([]float64{a, b})
		e := pred - (a*a + b)
		sse += e * e
		count++
	}
	rmse := math.Sqrt(sse / count)
	if rmse > 0.6 {
		t.Fatalf("RMSE %v too high", rmse)
	}
}

func TestHandlesDiscontinuity(t *testing.T) {
	// Step function — the non-continuous systems-workload case the paper
	// picks RF for.
	rng := rand.New(rand.NewSource(2))
	n := 400
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		x[i] = []float64{v}
		if v > 0.5 {
			y[i] = 10
		}
	}
	f, _ := Train(DefaultConfig(), x, y)
	if p := f.Predict([]float64{0.25}); math.Abs(p) > 1 {
		t.Fatalf("left of step predicts %v", p)
	}
	if p := f.Predict([]float64{0.75}); math.Abs(p-10) > 1 {
		t.Fatalf("right of step predicts %v", p)
	}
}

func TestVarianceHigherOffData(t *testing.T) {
	// Trees disagree more away from training data than at a densely
	// sampled region.
	rng := rand.New(rand.NewSource(3))
	n := 300
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64() * 0.4 // only cover [0, 0.4]
		x[i] = []float64{v}
		y[i] = math.Sin(10*v) + rng.NormFloat64()*0.05
	}
	c := DefaultConfig()
	c.Subsample = 0.5
	f, _ := Train(c, x, y)
	_, varIn := f.PredictVar([]float64{0.2})
	_, varOut := f.PredictVar([]float64{0.9})
	if varOut < varIn {
		t.Fatalf("variance off-data (%v) should be >= on-data (%v)", varOut, varIn)
	}
}

func TestDeterministic(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}, {5}, {6}}
	y := []float64{1, 2, 3, 4, 5, 6}
	f1, _ := Train(DefaultConfig(), x, y)
	f2, _ := Train(DefaultConfig(), x, y)
	for _, v := range []float64{1.5, 3.3, 5.9} {
		if f1.Predict([]float64{v}) != f2.Predict([]float64{v}) {
			t.Fatal("same seed must reproduce")
		}
	}
}

func TestConstantTarget(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}, {4}}
	y := []float64{7, 7, 7, 7}
	f, err := Train(DefaultConfig(), x, y)
	if err != nil {
		t.Fatal(err)
	}
	m, v := f.PredictVar([]float64{2.5})
	if m != 7 || v != 0 {
		t.Fatalf("constant target: mean %v var %v", m, v)
	}
}

func TestProbabilityRegression(t *testing.T) {
	// Feasibility-style usage: regress on 0/1 labels; mean prediction is
	// a probability in [0,1].
	rng := rand.New(rand.NewSource(4))
	n := 400
	x := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := rng.Float64()
		x[i] = []float64{v}
		if v < 0.5 {
			y[i] = 1 // feasible region
		}
	}
	f, _ := Train(DefaultConfig(), x, y)
	if p := f.Predict([]float64{0.1}); p < 0.8 {
		t.Fatalf("feasible region prob %v", p)
	}
	if p := f.Predict([]float64{0.9}); p > 0.2 {
		t.Fatalf("infeasible region prob %v", p)
	}
}

func TestNumTrees(t *testing.T) {
	c := DefaultConfig()
	c.Trees = 5
	f, _ := Train(c, [][]float64{{1}, {2}}, []float64{1, 2})
	if f.NumTrees() != 5 {
		t.Fatalf("NumTrees = %d", f.NumTrees())
	}
}

func TestPredictDimensionPanics(t *testing.T) {
	f, _ := Train(DefaultConfig(), [][]float64{{1, 2}, {3, 4}}, []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("wrong dimension must panic")
		}
	}()
	f.Predict([]float64{1})
}

// TestScratchTrainMatchesTrain: a forest fitted into a reused Scratch —
// over histories that grow and shrink, feature counts and tree counts
// that change, at two pool sizes — is the forest a fresh Train fits, node
// for node, and a steady-state refit allocates only the closure it hands
// to parallel.For.
func TestScratchTrainMatchesTrain(t *testing.T) {
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	rng := rand.New(rand.NewSource(7))
	var s Scratch
	for round, n := range []int{5, 6, 7, 20, 64, 9, 1, 33} {
		parallel.SetWorkers(1 + round%2*3)
		nFeat := 1 + round%4
		x := make([][]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = make([]float64, nFeat)
			for j := range x[i] {
				x[i][j] = float64(rng.Intn(5))
			}
			y[i] = x[i][0] + rng.NormFloat64()*0.1
		}
		c := DefaultConfig()
		c.Seed = int64(round)
		c.Trees = 8 + round%3*12
		want, err := Train(c, x, y)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Train(c, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if got.nFeat != want.nFeat || !reflect.DeepEqual(got.trees, want.trees) {
			t.Fatalf("round %d (n=%d): the Scratch's forest differs from Train's", round, n)
		}
		parallel.SetWorkers(1)
		if allocs := testing.AllocsPerRun(5, func() { _, _ = s.Train(c, x, y) }); allocs > 1 {
			t.Fatalf("round %d (n=%d): a refit into a warm Scratch allocated %.0f times", round, n, allocs)
		}
	}
}
