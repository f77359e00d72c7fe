package bo

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// Multi-objective optimization support. HyperMapper — the optimizer the
// paper builds on — is "a framework for constrained multi-objective
// optimization" (§4); Homunculus's single-model searches use one
// objective, but the framework exposes the general form (accuracy vs
// resource cost is the canonical data-plane trade-off). The implementation
// follows the random-scalarization approach of Paria et al. (UAI 2019,
// the paper's [72]): each BO round optimizes a randomly weighted
// combination of the objectives, which in aggregate covers the Pareto
// front. With one objective the engine skips the scalarizing step, so
// Maximize and MaximizeMulti are the same loop.

// MultiObjective evaluates a point and returns one value per objective
// (all maximized), feasibility, and auxiliary metrics.
type MultiObjective func(x []float64) (values []float64, feasible bool, metrics map[string]float64, err error)

// MultiEvaluation is one observed point in a multi-objective run.
type MultiEvaluation struct {
	X        []float64
	Values   []float64
	Feasible bool
	Metrics  map[string]float64
}

// MultiResult is the outcome of a multi-objective optimization run.
type MultiResult struct {
	History []MultiEvaluation
	// Front is the feasible Pareto-optimal subset of History (maximal in
	// every objective direction), in evaluation order.
	Front []MultiEvaluation
}

// Dominates reports whether a dominates b: no worse in every objective
// and strictly better in at least one.
func Dominates(a, b []float64) bool {
	if len(a) != len(b) {
		panic(fmt.Sprintf("bo: dominance over mismatched lengths %d vs %d", len(a), len(b)))
	}
	strictly := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strictly = true
		}
	}
	return strictly
}

// ParetoFront filters evals to the feasible non-dominated subset. Points
// with equal values are one trade-off: only the first evaluated of them
// is kept.
func ParetoFront(evals []MultiEvaluation) []MultiEvaluation {
	var front []MultiEvaluation
	for i, e := range evals {
		if !e.Feasible {
			continue
		}
		dominated := false
		for j, other := range evals {
			if i == j || !other.Feasible {
				continue
			}
			if Dominates(other.Values, e.Values) || (j < i && slices.Equal(other.Values, e.Values)) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, e)
		}
	}
	return front
}

// IndexedMultiObjective is a MultiObjective that is also told the
// evaluation's position in the run's history (0 for the first warm-up
// point).
type IndexedMultiObjective func(i int, x []float64) (values []float64, feasible bool, metrics map[string]float64, err error)

// MaximizeMulti runs constrained multi-objective BO over space with
// nObjectives objectives, one evaluation at a time. Each iteration draws
// a random weight vector on the simplex and runs the single-objective
// acquisition against the weighted sum; the returned result carries the
// full history and its Pareto front. Cancellation follows the Maximize
// contract: checked before every evaluation, trajectory untouched while
// ctx is undone. Evaluations never overlap, so an objective that measures
// wall-clock time (the serving tuner's replays) measures only itself.
func MaximizeMulti(ctx context.Context, space Space, cfg Config, nObjectives int, obj MultiObjective) (MultiResult, error) {
	return maximizeMulti(ctx, space, cfg, nObjectives, func(_ int, x []float64) ([]float64, bool, map[string]float64, error) {
		return obj(x)
	}, false)
}

// MaximizeMultiConcurrent is MaximizeMulti with the groups of points that
// wait on no pending result evaluated concurrently, as MaximizeConcurrent
// does for one objective. obj must be safe for concurrent calls; with the
// same obj the result is the one MaximizeMulti returns, bit for bit.
func MaximizeMultiConcurrent(ctx context.Context, space Space, cfg Config, nObjectives int, obj IndexedMultiObjective) (MultiResult, error) {
	return maximizeMulti(ctx, space, cfg, nObjectives, obj, true)
}

// maximizeMulti runs the engine with nObjectives objectives and returns
// its history with the Pareto front.
func maximizeMulti(ctx context.Context, space Space, cfg Config, nObjectives int, obj IndexedMultiObjective, concurrent bool) (MultiResult, error) {
	if nObjectives < 2 {
		return MultiResult{}, fmt.Errorf("bo: multi-objective search needs >= 2 objectives, got %d", nObjectives)
	}
	evals, err := maximize(ctx, space, cfg, nObjectives, func(i int, x, values []float64) (bool, map[string]float64, error) {
		v, feasible, metrics, err := obj(i, x)
		if err == nil && len(v) != nObjectives {
			err = fmt.Errorf("objective returned %d values, want %d", len(v), nObjectives)
		}
		copy(values, v)
		return feasible, metrics, err
	}, concurrent)
	if err != nil {
		return MultiResult{History: evals}, err
	}
	return MultiResult{History: evals, Front: ParetoFront(evals)}, nil
}

// scalarizeInto refills hist with evals valued under one weight vector,
// each objective rescaled by its observed range so that the weights are
// meaningful across magnitudes, and returns the best feasible point.
// hist's buffers are reused across rounds.
func scalarizeInto(hist *history, evals []MultiEvaluation, weights []float64) (incumbent float64, incumbentX []float64) {
	lo, hi := objectiveRanges(evals, len(weights))
	*hist = history{xs: hist.xs[:0], ys: hist.ys[:0], feas: hist.feas[:0]}
	incumbent = math.Inf(-1)
	for _, ev := range evals {
		v := scalarize(ev.Values, weights, lo, hi)
		hist.add(ev.X, v, ev.Feasible)
		if ev.Feasible && v > incumbent {
			incumbent, incumbentX = v, ev.X
		}
	}
	return incumbent, incumbentX
}

// sampleSimplex draws a uniform random weight vector summing to 1.
func sampleSimplex(rng *rand.Rand, n int) []float64 {
	w := make([]float64, n)
	var total float64
	for i := range w {
		w[i] = -math.Log(1 - rng.Float64())
		total += w[i]
	}
	for i := range w {
		w[i] /= total
	}
	return w
}

func objectiveRanges(history []MultiEvaluation, n int) (lo, hi []float64) {
	lo = make([]float64, n)
	hi = make([]float64, n)
	for i := range lo {
		lo[i] = math.Inf(1)
		hi[i] = math.Inf(-1)
	}
	for _, ev := range history {
		for i, v := range ev.Values {
			if v < lo[i] {
				lo[i] = v
			}
			if v > hi[i] {
				hi[i] = v
			}
		}
	}
	return lo, hi
}

func scalarize(values, weights, lo, hi []float64) float64 {
	var s float64
	for i, v := range values {
		span := hi[i] - lo[i]
		if span < 1e-12 {
			span = 1
		}
		s += weights[i] * (v - lo[i]) / span
	}
	return s
}
