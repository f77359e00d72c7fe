package bo

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDominates(t *testing.T) {
	if !Dominates([]float64{2, 2}, []float64{1, 2}) {
		t.Fatal("(2,2) dominates (1,2)")
	}
	if Dominates([]float64{1, 2}, []float64{2, 1}) {
		t.Fatal("incomparable points don't dominate")
	}
	if Dominates([]float64{1, 1}, []float64{1, 1}) {
		t.Fatal("equal points don't dominate")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	Dominates([]float64{1}, []float64{1, 2})
}

func TestParetoFront(t *testing.T) {
	evals := []MultiEvaluation{
		{Values: []float64{1, 5}, Feasible: true},
		{Values: []float64{5, 1}, Feasible: true},
		{Values: []float64{2, 2}, Feasible: true}, // dominated by (3,3)
		{X: []float64{0}, Values: []float64{3, 3}, Feasible: true},
		{Values: []float64{9, 9}, Feasible: false},                 // infeasible: excluded
		{X: []float64{1}, Values: []float64{3, 3}, Feasible: true}, // equals an earlier point: excluded
		{Values: []float64{9, 9}, Feasible: false},                 // equal infeasible points: excluded
	}
	front := ParetoFront(evals)
	if len(front) != 3 {
		t.Fatalf("front size %d, want 3", len(front))
	}
	if front[2].X[0] != 0 {
		t.Fatal("of equal points, the first evaluated must be kept")
	}
	for _, e := range front {
		if e.Values[0] == 2 && e.Values[1] == 2 {
			t.Fatal("(2,2) is dominated and must be excluded")
		}
		if !e.Feasible {
			t.Fatal("infeasible point on front")
		}
	}
}

func TestMaximizeMultiTradeoff(t *testing.T) {
	// Two conflicting objectives on x in [0,1]: f1 = x, f2 = 1-x. Every
	// feasible point is Pareto-optimal; the front should span the range.
	space := Space{Params: []Param{{Name: "x", Kind: Real, Min: 0, Max: 1}}}
	cfg := DefaultConfig()
	cfg.InitSamples = 5
	cfg.Iterations = 10
	res, err := MaximizeMulti(context.Background(), space, cfg, 2, func(x []float64) ([]float64, bool, map[string]float64, error) {
		return []float64{x[0], 1 - x[0]}, true, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 15 {
		t.Fatalf("history %d", len(res.History))
	}
	if len(res.Front) == 0 {
		t.Fatal("front must be non-empty")
	}
	// On this line every feasible point is non-dominated.
	if len(res.Front) != len(res.History) {
		t.Fatalf("all points lie on the front here: %d vs %d", len(res.Front), len(res.History))
	}
}

func TestMaximizeMultiFindsKnee(t *testing.T) {
	// Objectives with a dominant region: f1 = -(x-1)^2, f2 = -(y+1)^2 on
	// [-3,3]^2. The single global optimum (1,-1) maximizes both; the
	// search should find points near it on the front.
	space := Space{Params: []Param{
		{Name: "x", Kind: Real, Min: -3, Max: 3},
		{Name: "y", Kind: Real, Min: -3, Max: 3},
	}}
	cfg := DefaultConfig()
	cfg.InitSamples = 5
	cfg.Iterations = 20
	cfg.Seed = 2
	res, err := MaximizeMulti(context.Background(), space, cfg, 2, func(x []float64) ([]float64, bool, map[string]float64, error) {
		return []float64{-(x[0] - 1) * (x[0] - 1), -(x[1] + 1) * (x[1] + 1)}, true, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	best := math.Inf(-1)
	for _, e := range res.Front {
		if s := e.Values[0] + e.Values[1]; s > best {
			best = s
		}
	}
	if best < -2.0 {
		t.Fatalf("front misses the knee: best sum %v", best)
	}
}

func TestMaximizeMultiFeasibility(t *testing.T) {
	space := Space{Params: []Param{{Name: "x", Kind: Real, Min: 0, Max: 1}}}
	cfg := DefaultConfig()
	cfg.InitSamples = 4
	cfg.Iterations = 8
	res, err := MaximizeMulti(context.Background(), space, cfg, 2, func(x []float64) ([]float64, bool, map[string]float64, error) {
		return []float64{x[0], 1 - x[0]}, x[0] <= 0.5, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Front {
		if e.X[0] > 0.5 {
			t.Fatalf("infeasible point %v on front", e.X)
		}
	}
}

func TestMaximizeMultiErrors(t *testing.T) {
	space := Space{Params: []Param{{Name: "x", Kind: Real, Min: 0, Max: 1}}}
	cfg := DefaultConfig()
	if _, err := MaximizeMulti(context.Background(), space, cfg, 1, nil); err == nil {
		t.Fatal("single objective must be rejected")
	}
	boom := errors.New("boom")
	if _, err := MaximizeMulti(context.Background(), space, cfg, 2, func(x []float64) ([]float64, bool, map[string]float64, error) {
		return nil, false, nil, boom
	}); !errors.Is(err, boom) {
		t.Fatal("objective error must propagate")
	}
	if _, err := MaximizeMulti(context.Background(), space, cfg, 2, func(x []float64) ([]float64, bool, map[string]float64, error) {
		return []float64{1}, true, nil, nil // wrong arity
	}); err == nil {
		t.Fatal("wrong value arity must fail")
	}
}

func TestSampleSimplexQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		w := sampleSimplex(rng, 4)
		var sum float64
		for _, v := range w {
			if v < 0 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Pareto front never contains a dominated feasible point.
func TestParetoFrontQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRng(seed)
		n := 5 + rng.Intn(20)
		evals := make([]MultiEvaluation, n)
		for i := range evals {
			evals[i] = MultiEvaluation{
				Values:   []float64{rng.Float64(), rng.Float64()},
				Feasible: rng.Intn(4) != 0,
			}
		}
		front := ParetoFront(evals)
		for _, f1 := range front {
			for _, e := range evals {
				if e.Feasible && Dominates(e.Values, f1.Values) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
