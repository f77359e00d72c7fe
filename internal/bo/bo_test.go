package bo

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func space1D() Space {
	return Space{Params: []Param{{Name: "x", Kind: Real, Min: -5, Max: 5}}}
}

func TestParamValidate(t *testing.T) {
	bad := []Param{
		{Name: "", Kind: Real},
		{Name: "a", Kind: Real, Min: 2, Max: 1},
		{Name: "a", Kind: Ordinal},
		{Name: "a", Kind: Kind(9)},
	}
	for i, p := range bad {
		if p.Validate() == nil {
			t.Fatalf("param %d must fail", i)
		}
	}
	good := Param{Name: "a", Kind: Categorical, Values: []float64{0, 1}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSpaceValidate(t *testing.T) {
	if (Space{}).Validate() == nil {
		t.Fatal("empty space must fail")
	}
	dup := Space{Params: []Param{
		{Name: "a", Kind: Real, Min: 0, Max: 1},
		{Name: "a", Kind: Real, Min: 0, Max: 1},
	}}
	if dup.Validate() == nil {
		t.Fatal("duplicate names must fail")
	}
}

func TestParamSampleInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	real := Param{Name: "r", Kind: Real, Min: -1, Max: 1}
	integer := Param{Name: "i", Kind: Integer, Min: 2, Max: 7}
	ord := Param{Name: "o", Kind: Ordinal, Values: []float64{1, 10, 100}}
	for k := 0; k < 200; k++ {
		if v := real.Sample(rng); v < -1 || v > 1 {
			t.Fatalf("real sample %v", v)
		}
		v := integer.Sample(rng)
		if v != math.Trunc(v) || v < 2 || v > 7 {
			t.Fatalf("integer sample %v", v)
		}
		ov := ord.Sample(rng)
		if ov != 1 && ov != 10 && ov != 100 {
			t.Fatalf("ordinal sample %v", ov)
		}
	}
}

func TestParamClip(t *testing.T) {
	real := Param{Name: "r", Kind: Real, Min: 0, Max: 1}
	if real.Clip(5) != 1 || real.Clip(-5) != 0 || real.Clip(0.5) != 0.5 {
		t.Fatal("real clip")
	}
	integer := Param{Name: "i", Kind: Integer, Min: 0, Max: 10}
	if integer.Clip(3.6) != 4 || integer.Clip(99) != 10 {
		t.Fatal("integer clip")
	}
	ord := Param{Name: "o", Kind: Ordinal, Values: []float64{1, 10, 100}}
	if ord.Clip(12) != 10 || ord.Clip(1000) != 100 {
		t.Fatal("ordinal clip")
	}
}

func TestSpaceHelpers(t *testing.T) {
	s := Space{Params: []Param{
		{Name: "a", Kind: Real, Min: 0, Max: 1},
		{Name: "b", Kind: Integer, Min: 1, Max: 4},
	}}
	if s.Index("b") != 1 || s.Index("zz") != -1 {
		t.Fatal("Index wrong")
	}
	if v, err := s.Get([]float64{0.5, 3}, "b"); err != nil || v != 3 {
		t.Fatal("Get wrong")
	}
	if _, err := s.Get([]float64{0.5, 3}, "zz"); err == nil {
		t.Fatal("Get unknown must error")
	}
}

func TestConfigValidate(t *testing.T) {
	c := DefaultConfig()
	c.InitSamples = 0
	if c.Validate() == nil {
		t.Fatal("InitSamples 0 must fail")
	}
	c = DefaultConfig()
	c.Iterations = -1
	if c.Validate() == nil {
		t.Fatal("negative Iterations must fail")
	}
	c = DefaultConfig()
	c.Candidates = 0
	if c.Validate() == nil {
		t.Fatal("Candidates 0 must fail")
	}
}

func TestMaximizeFindsOptimum(t *testing.T) {
	// f(x) = -(x-2)^2, max at x=2.
	cfg := DefaultConfig()
	cfg.InitSamples = 5
	cfg.Iterations = 25
	cfg.Seed = 3
	res, err := Maximize(context.Background(), space1D(), cfg, func(x []float64) (float64, bool, map[string]float64, error) {
		return -(x[0] - 2) * (x[0] - 2), true, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("no best found")
	}
	if math.Abs(res.Best.X[0]-2) > 0.5 {
		t.Fatalf("best x = %v, want ~2", res.Best.X[0])
	}
	if len(res.History) != 30 {
		t.Fatalf("history len %d", len(res.History))
	}
}

func TestBOConvergesAcrossSeeds(t *testing.T) {
	// Robust convergence property: on a smooth 2D quadratic over
	// [-5,5]^2 with a 35-evaluation budget, the best found value must be
	// within 3.0 of the optimum on at least 7 of 8 seeds. (A head-to-head
	// BO-vs-random comparison lives in the ablation benchmarks where the
	// sample size is larger.)
	f := func(x []float64) float64 {
		return -(x[0]-1.5)*(x[0]-1.5) - (x[1]+0.5)*(x[1]+0.5)
	}
	space := Space{Params: []Param{
		{Name: "x", Kind: Real, Min: -5, Max: 5},
		{Name: "y", Kind: Real, Min: -5, Max: 5},
	}}
	converged := 0
	for seed := int64(1); seed <= 8; seed++ {
		cfg := DefaultConfig()
		cfg.InitSamples = 5
		cfg.Iterations = 30
		cfg.Seed = seed
		res, err := Maximize(context.Background(), space, cfg, func(x []float64) (float64, bool, map[string]float64, error) {
			return f(x), true, nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Best.Objective > -3.0 {
			converged++
		}
	}
	if converged < 7 {
		t.Fatalf("BO converged on only %d/8 seeds", converged)
	}
}

func TestFeasibilityConstraintRespected(t *testing.T) {
	// Optimum at x=4 is infeasible (constraint: x <= 0); best feasible is
	// near 0.
	cfg := DefaultConfig()
	cfg.InitSamples = 6
	cfg.Iterations = 20
	cfg.Seed = 5
	res, err := Maximize(context.Background(), space1D(), cfg, func(x []float64) (float64, bool, map[string]float64, error) {
		return -(x[0] - 4) * (x[0] - 4), x[0] <= 0, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil {
		t.Fatal("should find a feasible point")
	}
	if res.Best.X[0] > 0 {
		t.Fatalf("best point %v violates constraint", res.Best.X[0])
	}
	if res.Best.X[0] < -2 {
		t.Fatalf("best feasible %v too far from boundary", res.Best.X[0])
	}
}

func TestAllInfeasible(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitSamples = 3
	cfg.Iterations = 3
	res, err := Maximize(context.Background(), space1D(), cfg, func(x []float64) (float64, bool, map[string]float64, error) {
		return 0, false, nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best != nil {
		t.Fatal("no feasible point exists; Best must be nil")
	}
	if len(res.History) != 6 {
		t.Fatalf("history %d", len(res.History))
	}
}

func TestObjectiveErrorPropagates(t *testing.T) {
	cfg := DefaultConfig()
	boom := errors.New("boom")
	_, err := Maximize(context.Background(), space1D(), cfg, func(x []float64) (float64, bool, map[string]float64, error) {
		return 0, false, nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitSamples = 4
	cfg.Iterations = 6
	obj := func(x []float64) (float64, bool, map[string]float64, error) {
		return math.Sin(x[0]), true, nil, nil
	}
	r1, _ := Maximize(context.Background(), space1D(), cfg, obj)
	r2, _ := Maximize(context.Background(), space1D(), cfg, obj)
	for i := range r1.History {
		if r1.History[i].X[0] != r2.History[i].X[0] {
			t.Fatal("same seed must replay identical evaluations")
		}
	}
}

func TestBestByIterationMonotoneAfterFeasible(t *testing.T) {
	res := Result{History: []Evaluation{
		{Objective: 5, Feasible: false},
		{Objective: 1, Feasible: true},
		{Objective: 0.5, Feasible: true},
		{Objective: 3, Feasible: true},
	}}
	series := res.BestByIteration()
	want := []float64{5, 1, 1, 3}
	for i := range want {
		if series[i] != want[i] {
			t.Fatalf("series = %v, want %v", series, want)
		}
	}
}

// Property: every evaluation's parameters lie within the space bounds.
func TestEvaluationsInBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		space := Space{Params: []Param{
			{Name: "r", Kind: Real, Min: 0, Max: 1},
			{Name: "i", Kind: Integer, Min: 1, Max: 8},
			{Name: "c", Kind: Categorical, Values: []float64{2, 4, 6}},
		}}
		cfg := DefaultConfig()
		cfg.InitSamples = 3
		cfg.Iterations = 3
		cfg.Candidates = 50
		cfg.Seed = seed
		res, err := Maximize(context.Background(), space, cfg, func(x []float64) (float64, bool, map[string]float64, error) {
			return x[0] + x[1], x[2] != 6, nil, nil
		})
		if err != nil {
			return false
		}
		for _, ev := range res.History {
			if ev.X[0] < 0 || ev.X[0] > 1 {
				return false
			}
			if ev.X[1] != math.Trunc(ev.X[1]) || ev.X[1] < 1 || ev.X[1] > 8 {
				return false
			}
			if ev.X[2] != 2 && ev.X[2] != 4 && ev.X[2] != 6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if Real.String() != "real" || Categorical.String() != "categorical" || Kind(9).String() == "" {
		t.Fatal("Kind stringer")
	}
}

func TestMaximizeCancellation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.InitSamples = 3
	cfg.Iterations = 20
	cfg.Candidates = 50
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	res, err := Maximize(ctx, space1D(), cfg, func(x []float64) (float64, bool, map[string]float64, error) {
		evals++
		if evals == 5 {
			cancel()
		}
		return -x[0] * x[0], true, nil, nil
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped Canceled, got %v", err)
	}
	if evals != 5 {
		t.Fatalf("search must stop at the next evaluation after cancel, ran %d", evals)
	}
	if len(res.History) != 5 {
		t.Fatalf("partial history must survive cancellation: %d", len(res.History))
	}
}

func TestMaximizeMultiCancellation(t *testing.T) {
	space := Space{Params: []Param{{Name: "x", Kind: Real, Min: 0, Max: 1}}}
	cfg := DefaultConfig()
	cfg.InitSamples = 2
	cfg.Iterations = 20
	cfg.Candidates = 50
	ctx, cancel := context.WithCancel(context.Background())
	evals := 0
	_, err := MaximizeMulti(ctx, space, cfg, 2, func(x []float64) ([]float64, bool, map[string]float64, error) {
		evals++
		if evals == 4 {
			cancel()
		}
		return []float64{x[0], -x[0]}, true, nil, nil
	})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want wrapped Canceled, got %v", err)
	}
	if evals != 4 {
		t.Fatalf("ran %d evaluations after cancel", evals)
	}
}
