package bo

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/parallel"
)

// referenceMaximize is Maximize as it was before evaluations were
// grouped: one point chosen, evaluated and recorded at a time, the
// fourth-iteration uniform sample drawn after the suggestion before it
// has been evaluated. The grouped engine must reproduce it bit for bit.
func referenceMaximize(space Space, cfg Config, obj IndexedObjective) (Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var res Result
	hist := &history{}
	scratch := newSuggestScratch(cfg.Candidates, len(space.Params))
	evaluate := func(x []float64) error {
		val, feas, metrics, err := obj(len(res.History), x)
		if err != nil {
			return err
		}
		ev := Evaluation{X: append([]float64{}, x...), Objective: val, Feasible: feas, Metrics: metrics}
		res.History = append(res.History, ev)
		hist.add(ev.X, val, feas)
		if feas && (res.Best == nil || val > res.Best.Objective) {
			best := ev
			res.Best = &best
		}
		return nil
	}
	for i := 0; i < cfg.InitSamples; i++ {
		if err := evaluate(space.Sample(rng)); err != nil {
			return res, err
		}
	}
	for it := 0; it < cfg.Iterations; it++ {
		var next []float64
		if it%4 == 3 {
			next = space.Sample(rng)
		} else {
			incumbent := math.Inf(-1)
			var incumbentX []float64
			if res.Best != nil {
				incumbent, incumbentX = res.Best.Objective, res.Best.X
			}
			var err error
			if next, err = suggest(space, cfg, rng, hist, incumbent, incumbentX, scratch); err != nil {
				return res, err
			}
		}
		if err := evaluate(next); err != nil {
			return res, err
		}
	}
	return res, nil
}

// referenceMaximizeMulti is MaximizeMulti's own loop as it was before it
// folded into the grouped engine: one point chosen, evaluated and
// recorded at a time, each iteration drawing its weight vector first and
// the fourth-iteration uniform sample after the suggestion before it has
// been evaluated. Both multi-objective entries must reproduce it bit for
// bit.
func referenceMaximizeMulti(space Space, cfg Config, nObjectives int, obj IndexedMultiObjective) (MultiResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	var res MultiResult

	evaluate := func(x []float64) (MultiEvaluation, error) {
		values, feasible, metrics, err := obj(len(res.History), x)
		if err != nil {
			return MultiEvaluation{}, fmt.Errorf("bo: multi-objective evaluation failed: %w", err)
		}
		if len(values) != nObjectives {
			return MultiEvaluation{}, fmt.Errorf("bo: objective returned %d values, want %d", len(values), nObjectives)
		}
		ev := MultiEvaluation{
			X:        append([]float64{}, x...),
			Values:   append([]float64{}, values...),
			Feasible: feasible,
			Metrics:  metrics,
		}
		res.History = append(res.History, ev)
		return ev, nil
	}

	// Warm-up.
	for i := 0; i < cfg.InitSamples; i++ {
		if _, err := evaluate(space.Sample(rng)); err != nil {
			return res, err
		}
	}

	// Scalarized BO rounds. The scalarization rescales each objective by
	// the observed range so weights are meaningful across magnitudes. The
	// scalarized history and candidate buffers are reused across rounds;
	// only the scalar objective values are recomputed under each round's
	// fresh weight vector.
	shist := &history{}
	scratch := newSuggestScratch(cfg.Candidates, len(space.Params))
	for it := 0; it < cfg.Iterations; it++ {
		weights := sampleSimplex(rng, nObjectives)
		lo, hi := objectiveRanges(res.History, nObjectives)
		shist.xs = shist.xs[:0]
		shist.ys = shist.ys[:0]
		shist.feas = shist.feas[:0]
		shist.nInfeasible = 0
		incumbent := math.Inf(-1)
		var incumbentX []float64
		for _, ev := range res.History {
			v := scalarize(ev.Values, weights, lo, hi)
			shist.add(ev.X, v, ev.Feasible)
			if ev.Feasible && v > incumbent {
				incumbent = v
				incumbentX = ev.X
			}
		}
		var next []float64
		if it%4 == 3 {
			next = space.Sample(rng)
		} else {
			var err error
			next, err = suggest(space, cfg, rng, shist, incumbent, incumbentX, scratch)
			if err != nil {
				return res, err
			}
		}
		if _, err := evaluate(next); err != nil {
			return res, err
		}
	}
	res.Front = ParetoFront(res.History)
	return res, nil
}

// mixedSpace has one dimension of every kind.
func mixedSpace() Space {
	return Space{Params: []Param{
		{Name: "r", Kind: Real, Min: -3, Max: 3},
		{Name: "i", Kind: Integer, Min: 0, Max: 9},
		{Name: "o", Kind: Ordinal, Values: []float64{0.1, 0.3, 1}},
		{Name: "c", Kind: Categorical, Values: []float64{0, 1, 2}},
	}}
}

// indexedObjective depends on the point and on its index, marks part of
// the space (and every fifth index) infeasible, and — when jitter is set
// — sleeps a duration seeded by the index, so that concurrent members of
// a group finish in shuffled order.
func indexedObjective(jitter bool) IndexedObjective {
	return func(i int, x []float64) (float64, bool, map[string]float64, error) {
		noise := rand.New(rand.NewSource(int64(i) + 7))
		v := math.Sin(x[0])*x[2] - 0.1*(x[1]-4)*(x[1]-4) + x[3]*0.2 + noise.Float64()*1e-3
		if jitter {
			time.Sleep(time.Duration(noise.Intn(400)) * time.Microsecond)
		}
		feasible := x[0] < 2 && i%5 != 3
		return v, feasible, map[string]float64{"index": float64(i)}, nil
	}
}

// indexedMultiObjective is indexedObjective with n (at most three)
// conflicting objectives.
func indexedMultiObjective(n int, jitter bool) IndexedMultiObjective {
	return func(i int, x []float64) ([]float64, bool, map[string]float64, error) {
		noise := rand.New(rand.NewSource(int64(i) + 7))
		values := []float64{
			math.Sin(x[0])*x[2] + noise.Float64()*1e-3,
			-0.1*(x[1]-4)*(x[1]-4) + x[3]*0.2 - x[0],
			x[1]*0.3 - x[2],
		}[:n]
		if jitter {
			time.Sleep(time.Duration(noise.Intn(400)) * time.Microsecond)
		}
		feasible := x[0] < 2 && i%5 != 3
		return values, feasible, map[string]float64{"index": float64(i)}, nil
	}
}

// sameResult reports the first difference between two results, bit for
// bit, or "".
func sameResult(got, want Result) string {
	if len(got.History) != len(want.History) {
		return fmt.Sprintf("history has %d evaluations, want %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if d := sameEvaluation(got.History[i], want.History[i]); d != "" {
			return fmt.Sprintf("evaluation %d: %s", i, d)
		}
	}
	switch {
	case (got.Best == nil) != (want.Best == nil):
		return fmt.Sprintf("best %v, want %v", got.Best, want.Best)
	case got.Best != nil:
		if d := sameEvaluation(*got.Best, *want.Best); d != "" {
			return "best: " + d
		}
	}
	return ""
}

func bits(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

func sameEvaluation(got, want Evaluation) string {
	if !reflect.DeepEqual(bits(got.X), bits(want.X)) {
		return fmt.Sprintf("x = %v, want %v", got.X, want.X)
	}
	if math.Float64bits(got.Objective) != math.Float64bits(want.Objective) || got.Feasible != want.Feasible {
		return fmt.Sprintf("(%v, %v), want (%v, %v)", got.Objective, got.Feasible, want.Objective, want.Feasible)
	}
	if !reflect.DeepEqual(got.Metrics, want.Metrics) {
		return fmt.Sprintf("metrics %v, want %v", got.Metrics, want.Metrics)
	}
	return ""
}

// sameMultiResult reports the first difference between two
// multi-objective results, history and front, bit for bit, or "".
func sameMultiResult(got, want MultiResult) string {
	for _, part := range []struct {
		name      string
		got, want []MultiEvaluation
	}{{"history", got.History, want.History}, {"front", got.Front, want.Front}} {
		if len(part.got) != len(part.want) {
			return fmt.Sprintf("%s has %d evaluations, want %d", part.name, len(part.got), len(part.want))
		}
		for i, w := range part.want {
			g := part.got[i]
			switch {
			case !reflect.DeepEqual(bits(g.X), bits(w.X)):
				return fmt.Sprintf("%s %d: x = %v, want %v", part.name, i, g.X, w.X)
			case !reflect.DeepEqual(bits(g.Values), bits(w.Values)) || g.Feasible != w.Feasible:
				return fmt.Sprintf("%s %d: (%v, %v), want (%v, %v)", part.name, i, g.Values, g.Feasible, w.Values, w.Feasible)
			case !reflect.DeepEqual(g.Metrics, w.Metrics):
				return fmt.Sprintf("%s %d: metrics %v, want %v", part.name, i, g.Metrics, w.Metrics)
			}
		}
	}
	return ""
}

func withPool(t *testing.T, workers int) {
	t.Helper()
	old := parallel.Workers()
	parallel.SetWorkers(workers)
	t.Cleanup(func() { parallel.SetWorkers(old) })
}

// TestMaximizeConcurrentMatchesSerial: over every warm-up size from 1 to
// 6 and every iteration count from 0 to 11 (so every group shape, a
// trailing unpaired suggestion included), at pool sizes 1, 2 and 4, the
// concurrent engine's result — history, incumbent, metrics — equals the
// one-at-a-time loop's, although its evaluations finish in a jittered
// order; and so does Maximize's.
func TestMaximizeConcurrentMatchesSerial(t *testing.T) {
	space := mixedSpace()
	for init := 1; init <= 6; init++ {
		for iters := 0; iters <= 11; iters++ {
			cfg := DefaultConfig()
			cfg.InitSamples, cfg.Iterations, cfg.Candidates = init, iters, 40
			cfg.Forest.Trees = 8
			cfg.Seed = int64(init*100 + iters)
			want, err := referenceMaximize(space, cfg, indexedObjective(false))
			if err != nil {
				t.Fatal(err)
			}
			if len(want.History) != init+iters {
				t.Fatalf("reference ran %d evaluations", len(want.History))
			}
			for _, workers := range []int{1, 2, 4} {
				withPool(t, workers)
				got, err := MaximizeConcurrent(context.Background(), space, cfg, indexedObjective(true))
				if err != nil {
					t.Fatal(err)
				}
				if d := sameResult(got, want); d != "" {
					t.Fatalf("init=%d iters=%d workers=%d: MaximizeConcurrent: %s", init, iters, workers, d)
				}
				serial := indexedObjective(false)
				calls := 0
				got, err = Maximize(context.Background(), space, cfg, func(x []float64) (float64, bool, map[string]float64, error) {
					calls++
					return serial(calls-1, x)
				})
				if err != nil {
					t.Fatal(err)
				}
				if d := sameResult(got, want); d != "" {
					t.Fatalf("init=%d iters=%d workers=%d: Maximize: %s", init, iters, workers, d)
				}
			}
		}
	}
}

// TestMaximizeMultiConcurrentMatchesSerial: the sweep of
// TestMaximizeConcurrentMatchesSerial at two and three objectives. Both
// multi-objective entries return the old loop's history — points,
// values, feasibility, metrics — and its front, bit for bit; the
// concurrent one although its evaluations finish in a jittered order.
func TestMaximizeMultiConcurrentMatchesSerial(t *testing.T) {
	space := mixedSpace()
	for _, nObj := range []int{2, 3} {
		for init := 1; init <= 6; init++ {
			for iters := 0; iters <= 11; iters++ {
				cfg := DefaultConfig()
				cfg.InitSamples, cfg.Iterations, cfg.Candidates = init, iters, 40
				cfg.Forest.Trees = 8
				cfg.Seed = int64(nObj*10000 + init*100 + iters)
				want, err := referenceMaximizeMulti(space, cfg, nObj, indexedMultiObjective(nObj, false))
				if err != nil {
					t.Fatal(err)
				}
				if len(want.History) != init+iters {
					t.Fatalf("reference ran %d evaluations", len(want.History))
				}
				for _, workers := range []int{1, 2, 4} {
					withPool(t, workers)
					got, err := MaximizeMultiConcurrent(context.Background(), space, cfg, nObj, indexedMultiObjective(nObj, true))
					if err != nil {
						t.Fatal(err)
					}
					if d := sameMultiResult(got, want); d != "" {
						t.Fatalf("objectives=%d init=%d iters=%d workers=%d: MaximizeMultiConcurrent: %s", nObj, init, iters, workers, d)
					}
					serial := indexedMultiObjective(nObj, false)
					calls := 0
					got, err = MaximizeMulti(context.Background(), space, cfg, nObj, func(x []float64) ([]float64, bool, map[string]float64, error) {
						calls++
						return serial(calls-1, x)
					})
					if err != nil {
						t.Fatal(err)
					}
					if d := sameMultiResult(got, want); d != "" {
						t.Fatalf("objectives=%d init=%d iters=%d workers=%d: MaximizeMulti: %s", nObj, init, iters, workers, d)
					}
				}
			}
		}
	}
}

// TestMaximizeConcurrentCancelledKeepsEvaluatedPrefix: a cancel inside
// the warm-up group skips the members that had not started, and the
// history returned is a prefix of the uncancelled run's, ending before
// the first member that was not evaluated. On a one-worker pool the
// members run in order, so exactly the cancelling one ends the history.
// Both concurrent entries, one objective and two, keep this contract.
func TestMaximizeConcurrentCancelledKeepsEvaluatedPrefix(t *testing.T) {
	space := mixedSpace()
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.Candidates = 6, 8, 40
	cfg.Forest.Trees = 8
	single, err := referenceMaximize(space, cfg, indexedObjective(false))
	if err != nil {
		t.Fatal(err)
	}
	multi, err := referenceMaximizeMulti(space, cfg, 2, indexedMultiObjective(2, false))
	if err != nil {
		t.Fatal(err)
	}
	// Each entry runs with hook called before every evaluation and
	// returns how many evaluations its history holds and how it differs
	// from that prefix of the uncancelled run.
	entries := []struct {
		name string
		run  func(ctx context.Context, hook func(i int)) (int, string, error)
	}{
		{"MaximizeConcurrent", func(ctx context.Context, hook func(i int)) (int, string, error) {
			inner := indexedObjective(true)
			got, err := MaximizeConcurrent(ctx, space, cfg, func(i int, x []float64) (float64, bool, map[string]float64, error) {
				hook(i)
				return inner(i, x)
			})
			n := len(got.History)
			prefix := Result{History: single.History[:n]}
			for i := range prefix.History {
				if ev := prefix.History[i]; ev.Feasible && (prefix.Best == nil || ev.Objective > prefix.Best.Objective) {
					prefix.Best = &prefix.History[i]
				}
			}
			return n, sameResult(got, prefix), err
		}},
		{"MaximizeMultiConcurrent", func(ctx context.Context, hook func(i int)) (int, string, error) {
			inner := indexedMultiObjective(2, true)
			got, err := MaximizeMultiConcurrent(ctx, space, cfg, 2, func(i int, x []float64) ([]float64, bool, map[string]float64, error) {
				hook(i)
				return inner(i, x)
			})
			n := len(got.History)
			return n, sameMultiResult(got, MultiResult{History: multi.History[:n]}), err
		}},
	}
	for _, entry := range entries {
		for _, cancelAt := range []int{1, 4, 8} {
			for _, workers := range []int{1, 2, 4} {
				withPool(t, workers)
				ctx, cancel := context.WithCancel(context.Background())
				var evaluated [32]atomic.Bool
				n, d, err := entry.run(ctx, func(i int) {
					evaluated[i].Store(true)
					if i == cancelAt {
						cancel()
					}
				})
				cancel()
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s cancelAt=%d workers=%d: err = %v, want wrapped Canceled", entry.name, cancelAt, workers, err)
				}
				for i := 0; i < n; i++ {
					if !evaluated[i].Load() {
						t.Fatalf("%s cancelAt=%d workers=%d: history holds evaluation %d, which never ran", entry.name, cancelAt, workers, i)
					}
				}
				if evaluated[n].Load() {
					t.Fatalf("%s cancelAt=%d workers=%d: history stops at %d although that evaluation ran", entry.name, cancelAt, workers, n)
				}
				if d != "" {
					t.Fatalf("%s cancelAt=%d workers=%d: %s", entry.name, cancelAt, workers, d)
				}
				if workers == 1 && n != cancelAt+1 {
					t.Fatalf("%s cancelAt=%d: a one-worker pool kept %d evaluations, want %d", entry.name, cancelAt, n, cancelAt+1)
				}
			}
		}
	}
}
