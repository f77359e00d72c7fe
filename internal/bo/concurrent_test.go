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

func sameEvaluation(got, want Evaluation) string {
	bits := func(v []float64) []uint64 {
		out := make([]uint64, len(v))
		for i, f := range v {
			out[i] = math.Float64bits(f)
		}
		return out
	}
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

// TestMaximizeConcurrentCancelledKeepsEvaluatedPrefix: a cancel inside
// the warm-up group skips the members that had not started, and the
// history returned is a prefix of the uncancelled run's, ending before
// the first member that was not evaluated. On a one-worker pool the
// members run in order, so exactly the cancelling one ends the history.
func TestMaximizeConcurrentCancelledKeepsEvaluatedPrefix(t *testing.T) {
	space := mixedSpace()
	cfg := DefaultConfig()
	cfg.InitSamples, cfg.Iterations, cfg.Candidates = 6, 8, 40
	cfg.Forest.Trees = 8
	for _, cancelAt := range []int{1, 4, 8} {
		want, err := referenceMaximize(space, cfg, indexedObjective(false))
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			withPool(t, workers)
			ctx, cancel := context.WithCancel(context.Background())
			inner := indexedObjective(true)
			var evaluated [32]atomic.Bool
			got, err := MaximizeConcurrent(ctx, space, cfg, func(i int, x []float64) (float64, bool, map[string]float64, error) {
				evaluated[i].Store(true)
				if i == cancelAt {
					cancel()
				}
				return inner(i, x)
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelAt=%d workers=%d: err = %v, want wrapped Canceled", cancelAt, workers, err)
			}
			n := len(got.History)
			for i := 0; i < n; i++ {
				if !evaluated[i].Load() {
					t.Fatalf("cancelAt=%d workers=%d: history holds evaluation %d, which never ran", cancelAt, workers, i)
				}
			}
			if evaluated[n].Load() {
				t.Fatalf("cancelAt=%d workers=%d: history stops at %d although that evaluation ran", cancelAt, workers, n)
			}
			prefix := Result{History: want.History[:n]}
			for i := range prefix.History {
				if ev := prefix.History[i]; ev.Feasible && (prefix.Best == nil || ev.Objective > prefix.Best.Objective) {
					prefix.Best = &prefix.History[i]
				}
			}
			if d := sameResult(got, prefix); d != "" {
				t.Fatalf("cancelAt=%d workers=%d: %s", cancelAt, workers, d)
			}
			if workers == 1 && n != cancelAt+1 {
				t.Fatalf("cancelAt=%d: a one-worker pool kept %d evaluations, want %d", cancelAt, n, cancelAt+1)
			}
		}
	}
}
