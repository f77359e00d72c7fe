// Package bo implements the constrained Bayesian optimization engine at
// the heart of Homunculus's optimization core — the stdlib-only
// equivalent of HyperMapper (Nardi et al., MASCOTS 2019) as the paper
// configures it: a random-forest surrogate, Expected Improvement
// acquisition, a uniform random-sampling initialization phase, and
// probability-of-feasibility weighting for the black-box constraints
// (resource budgets, throughput, latency).
//
// The black box optimizes a possibly noisy f: X → R over a bounded domain
// of real, integer, ordinal and categorical variables (§3.2.3). Each
// evaluation also reports feasibility; infeasible configurations never
// become incumbents but still train the feasibility model so the search
// learns to avoid them.
//
// One engine runs every search, with one objective or several (random
// scalarization, see multi.go). A run's evaluations form groups by
// dependence: the warm-up points are all drawn before any result exists,
// and each fourth-iteration uniform sample reads nothing of the
// suggestion before it. Maximize and MaximizeMulti evaluate one point at
// a time; MaximizeConcurrent and MaximizeMultiConcurrent evaluate a
// group's members concurrently on the shared worker pool and record them
// in index order, so the serial and the concurrent entry return the same
// result for the same seed. The serial entries are for objectives that
// must not overlap, such as the serving tuner's replays, which measure
// wall-clock time.
package bo

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/rf"
)

// Kind classifies a search-space parameter (§3.2.3: "real (continuous),
// integer, ordinal, or categorical").
type Kind int

// Parameter kinds.
const (
	Real Kind = iota
	Integer
	Ordinal
	Categorical
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Real:
		return "real"
	case Integer:
		return "integer"
	case Ordinal:
		return "ordinal"
	case Categorical:
		return "categorical"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Param is one dimension of the design space. Real/Integer use [Min, Max];
// Ordinal/Categorical enumerate Values (ordinals must be sorted by the
// caller; categoricals are unordered codes).
type Param struct {
	Name   string
	Kind   Kind
	Min    float64
	Max    float64
	Values []float64
}

// Validate reports parameter definition errors.
func (p Param) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("bo: parameter with empty name")
	}
	switch p.Kind {
	case Real, Integer:
		if p.Min > p.Max {
			return fmt.Errorf("bo: param %q has Min %v > Max %v", p.Name, p.Min, p.Max)
		}
	case Ordinal, Categorical:
		if len(p.Values) == 0 {
			return fmt.Errorf("bo: param %q needs at least one value", p.Name)
		}
	default:
		return fmt.Errorf("bo: param %q has unknown kind %d", p.Name, int(p.Kind))
	}
	return nil
}

// Sample draws a uniform random setting of the parameter.
func (p Param) Sample(rng *rand.Rand) float64 {
	switch p.Kind {
	case Real:
		return p.Min + rng.Float64()*(p.Max-p.Min)
	case Integer:
		lo, hi := int(math.Ceil(p.Min)), int(math.Floor(p.Max))
		if hi < lo {
			return p.Min
		}
		return float64(lo + rng.Intn(hi-lo+1))
	default:
		return p.Values[rng.Intn(len(p.Values))]
	}
}

// Clip snaps v to a legal setting of the parameter.
func (p Param) Clip(v float64) float64 {
	switch p.Kind {
	case Real:
		return math.Max(p.Min, math.Min(p.Max, v))
	case Integer:
		return math.Max(math.Ceil(p.Min), math.Min(math.Floor(p.Max), math.Round(v)))
	default:
		best, bd := p.Values[0], math.Inf(1)
		for _, cand := range p.Values {
			if d := math.Abs(cand - v); d < bd {
				best, bd = cand, d
			}
		}
		return best
	}
}

// Space is the full design space.
type Space struct {
	Params []Param
}

// Validate checks every parameter and name uniqueness.
func (s Space) Validate() error {
	if len(s.Params) == 0 {
		return fmt.Errorf("bo: empty design space")
	}
	seen := map[string]bool{}
	for _, p := range s.Params {
		if err := p.Validate(); err != nil {
			return err
		}
		if seen[p.Name] {
			return fmt.Errorf("bo: duplicate parameter %q", p.Name)
		}
		seen[p.Name] = true
	}
	return nil
}

// Sample draws a uniform random point.
func (s Space) Sample(rng *rand.Rand) []float64 {
	x := make([]float64, len(s.Params))
	s.sampleInto(rng, x)
	return x
}

// sampleInto draws a uniform random point into dst (len == dims).
func (s Space) sampleInto(rng *rand.Rand, dst []float64) {
	for i, p := range s.Params {
		dst[i] = p.Sample(rng)
	}
}

// Index returns the position of the named parameter, or -1.
func (s Space) Index(name string) int {
	for i, p := range s.Params {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// Get returns the value of the named parameter within point x.
func (s Space) Get(x []float64, name string) (float64, error) {
	i := s.Index(name)
	if i < 0 {
		return 0, fmt.Errorf("bo: unknown parameter %q", name)
	}
	return x[i], nil
}

// Evaluation is one observed point.
type Evaluation struct {
	X         []float64
	Objective float64
	Feasible  bool
	// Metrics carries auxiliary measurements (resource counts,
	// latency, throughput) for reporting.
	Metrics map[string]float64
}

// Objective function: the black box. It returns the objective value (to be
// maximized), whether the point satisfied all feasibility constraints, and
// optional auxiliary metrics.
type Objective func(x []float64) (value float64, feasible bool, metrics map[string]float64, err error)

// Config controls the optimizer.
type Config struct {
	InitSamples int // uniform random warm-up evaluations
	Iterations  int // BO iterations after warm-up
	Candidates  int // acquisition candidates per iteration
	Forest      rf.Config
	Seed        int64
}

// DefaultConfig mirrors the paper's HyperMapper setup at repo scale.
func DefaultConfig() Config {
	return Config{
		InitSamples: 5,
		Iterations:  15,
		Candidates:  500,
		Forest:      rf.DefaultConfig(),
		Seed:        1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.InitSamples <= 0 {
		return fmt.Errorf("bo: InitSamples must be positive, got %d", c.InitSamples)
	}
	if c.Iterations < 0 {
		return fmt.Errorf("bo: Iterations must be >= 0, got %d", c.Iterations)
	}
	if c.Candidates <= 0 {
		return fmt.Errorf("bo: Candidates must be positive, got %d", c.Candidates)
	}
	return c.Forest.Validate()
}

// Result is the outcome of an optimization run.
type Result struct {
	Best    *Evaluation  // best feasible point (nil if none found)
	History []Evaluation // every evaluation in order
}

// BestByIteration returns the running maximum of feasible objective values
// after each evaluation — the regret-plot series of Figures 4 and 7.
// Iterations before the first feasible point carry that iteration's raw
// objective (matching how the paper plots early infeasible scores).
func (r Result) BestByIteration() []float64 {
	out := make([]float64, len(r.History))
	best := math.Inf(-1)
	haveBest := false
	for i, ev := range r.History {
		if ev.Feasible && (!haveBest || ev.Objective > best) {
			best = ev.Objective
			haveBest = true
		}
		if haveBest {
			out[i] = best
		} else {
			out[i] = ev.Objective
		}
	}
	return out
}

// history is the incremental training-set view of a run: one append per
// evaluation instead of rebuilding xs/ys/feas from Result.History every
// suggest call.
type history struct {
	xs          [][]float64
	ys          []float64
	feas        []float64
	nInfeasible int
}

func (h *history) add(x []float64, objective float64, feasible bool) {
	h.xs = append(h.xs, x)
	h.ys = append(h.ys, objective)
	if feasible {
		h.feas = append(h.feas, 1)
	} else {
		h.feas = append(h.feas, 0)
		h.nInfeasible++
	}
}

// suggestScratch holds the candidate pool, the acquisition buffers and the
// two forests' fit memory, reused across every suggest call of a run.
type suggestScratch struct {
	flat  []float64   // backing storage for the candidate points
	cands [][]float64 // row views into flat
	eis   []float64   // acquisition value per candidate
	// Each suggest refits both models and is done with them when it
	// returns, so each refit overwrites the previous forest in place.
	surrogate, feasibility rf.Scratch
}

func newSuggestScratch(nCands, dims int) *suggestScratch {
	s := &suggestScratch{
		flat:  make([]float64, nCands*dims),
		cands: make([][]float64, nCands),
		eis:   make([]float64, nCands),
	}
	for i := range s.cands {
		s.cands[i] = s.flat[i*dims : (i+1)*dims]
	}
	return s
}

// Maximize runs constrained Bayesian optimization of obj over space,
// one evaluation at a time. The run is deterministic given Config.Seed —
// including at any GOMAXPROCS: the concurrent forest fits and acquisition
// scoring reduce with scheduling-independent seeds and a lowest-index
// argmax. Every evaluation error is fatal (the caller's black box is
// expected to encode failures as infeasible rather than erroring).
//
// Cancellation is checked before every evaluation: once ctx is done,
// Maximize returns the history so far together with an error wrapping
// ctx.Err(). An undone ctx never changes the trajectory, so fixed-seed
// runs stay byte-identical to the uncancellable API.
func Maximize(ctx context.Context, space Space, cfg Config, obj Objective) (Result, error) {
	return maximizeOne(ctx, space, cfg, func(_ int, x []float64) (float64, bool, map[string]float64, error) {
		return obj(x)
	}, false)
}

// IndexedObjective is an Objective that is also told the evaluation's
// position in the run's history (0 for the first warm-up point).
type IndexedObjective func(i int, x []float64) (value float64, feasible bool, metrics map[string]float64, err error)

// MaximizeConcurrent is Maximize with the points whose choice waits on
// no pending result evaluated concurrently over the shared worker pool:
// the InitSamples warm-up points, and each fourth-iteration uniform
// sample beside the suggestion before it. obj must be safe for
// concurrent calls; it is told each point's index so that whatever it
// derives per evaluation (a training seed, say) does not depend on the
// order in which the calls happen. Results enter the history in index
// order, so with the same obj the Result is the one Maximize returns,
// bit for bit. On cancellation, members of a group that never started
// are skipped and the history is the evaluated prefix.
func MaximizeConcurrent(ctx context.Context, space Space, cfg Config, obj IndexedObjective) (Result, error) {
	return maximizeOne(ctx, space, cfg, obj, true)
}

// maximizeOne runs the engine with one objective and reads its history
// as a Result.
func maximizeOne(ctx context.Context, space Space, cfg Config, obj IndexedObjective, concurrent bool) (Result, error) {
	evals, err := maximize(ctx, space, cfg, 1, func(i int, x, values []float64) (bool, map[string]float64, error) {
		v, feasible, metrics, err := obj(i, x)
		values[0] = v
		return feasible, metrics, err
	}, concurrent)
	var res Result
	if len(evals) > 0 {
		res.History = make([]Evaluation, 0, len(evals))
	}
	for _, e := range evals {
		ev := Evaluation{X: e.X, Objective: e.Values[0], Feasible: e.Feasible, Metrics: e.Metrics}
		res.History = append(res.History, ev)
		if ev.Feasible && (res.Best == nil || ev.Objective > res.Best.Objective) {
			best := ev
			res.Best = &best
		}
	}
	return res, err
}

// WarmUp returns the points a run with cfg evaluates first, in index
// order: the InitSamples uniform draws made before any result exists.
// They wait on nothing, so a caller may evaluate them ahead of the run,
// beside other work, and answer the run's first InitSamples objective
// calls — which ask for exactly these points — from what it found.
func WarmUp(space Space, cfg Config) ([][]float64, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return drawWarmUp(space, cfg, rand.New(rand.NewSource(cfg.Seed))), nil
}

// drawWarmUp draws a run's warm-up points from its fresh RNG.
func drawWarmUp(space Space, cfg Config, rng *rand.Rand) [][]float64 {
	points := make([][]float64, cfg.InitSamples)
	for i := range points {
		points[i] = space.Sample(rng)
	}
	return points
}

// engineObjective is the objective as the engine calls it: told the
// evaluation's index, it writes one value per objective into values.
type engineObjective func(i int, x, values []float64) (feasible bool, metrics map[string]float64, err error)

// outcome is one evaluation's return, held until its group is recorded.
type outcome struct {
	values   []float64
	feasible bool
	metrics  map[string]float64
	err      error
	done     bool // false when cancellation skipped the evaluation
}

// maximize is the one BO engine, behind every exported entry. It runs
// nObjectives objectives; with more than one, each iteration first
// scalarizes the history under a fresh random weight vector, and with
// one that step, and its RNG draws, do not happen. The engine groups the
// evaluations by dependence — a group's points are all drawn before any
// of them is evaluated — and records each group's results in index
// order, so the history, the incumbent, the forests' inputs and every
// later RNG draw are the same however a group is evaluated.
func maximize(ctx context.Context, space Space, cfg Config, nObjectives int, obj engineObjective, concurrent bool) ([]MultiEvaluation, error) {
	if err := space.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var evals []MultiEvaluation
	// hist is what the forests train on and incumbent the best feasible
	// point in it. With one objective both grow as results are recorded;
	// with more, the scalarizing step rebuilds them every iteration.
	hist := &history{}
	incumbent, incumbentX := math.Inf(-1), []float64(nil)
	scratch := newSuggestScratch(cfg.Candidates, len(space.Params))

	// group holds the points being evaluated, in index order, and outs
	// their returns; both, and the tasks that fill outs, serve every group.
	var group [][]float64
	outs := make([]outcome, max(cfg.InitSamples, 2))
	run := func(k int) {
		if ctx.Err() != nil {
			return
		}
		o := &outs[k]
		o.values = make([]float64, nObjectives)
		o.feasible, o.metrics, o.err = obj(len(evals)+k, group[k], o.values)
		o.done = true
	}
	tasks := make([]func(), len(outs))
	for k := range tasks {
		tasks[k] = func() { run(k) }
	}
	evaluate := func() error {
		outs := outs[:len(group)]
		clear(outs)
		if concurrent && len(group) > 1 {
			_ = parallel.RunCtx(ctx, tasks[:len(group)]...) // skipped members have done == false
		} else {
			for k := range group {
				if run(k); !outs[k].done || outs[k].err != nil {
					break
				}
			}
		}
		for k, o := range outs {
			if !o.done {
				return fmt.Errorf("bo: search cancelled after %d evaluations: %w", len(evals), ctx.Err())
			}
			if o.err != nil {
				return fmt.Errorf("bo: objective evaluation failed: %w", o.err)
			}
			ev := MultiEvaluation{X: append([]float64{}, group[k]...), Values: o.values, Feasible: o.feasible, Metrics: o.metrics}
			evals = append(evals, ev)
			if nObjectives == 1 {
				v := ev.Values[0]
				hist.add(ev.X, v, ev.Feasible)
				if ev.Feasible && (incumbentX == nil || v > incumbent) {
					incumbent, incumbentX = v, ev.X
				}
			}
		}
		return nil
	}

	// Phase 1: uniform random initialization, every point drawn before
	// any result exists.
	group = drawWarmUp(space, cfg, rng)
	if err := evaluate(); err != nil {
		return evals, err
	}

	// Phase 2: BO iterations. Every fourth iteration is a pure uniform
	// sample (epsilon-greedy exploration), which keeps the search from
	// locking onto a surrogate artifact when the forest's variance
	// estimate collapses — mirroring HyperMapper's randomized sampling
	// interleave. That sample reads nothing of the suggestion before it,
	// so it is drawn straight after suggest and the two form one group;
	// with several objectives its iteration's weight vector, which no
	// suggestion reads, is drawn just before it.
	for it := 0; it < cfg.Iterations; it++ {
		if nObjectives > 1 {
			incumbent, incumbentX = scalarizeInto(hist, evals, sampleSimplex(rng, nObjectives))
		}
		next, err := suggest(space, cfg, rng, hist, incumbent, incumbentX, scratch)
		if err != nil {
			return evals, err
		}
		group = append(group[:0], next)
		if it%4 == 2 && it+1 < cfg.Iterations {
			it++
			if nObjectives > 1 {
				sampleSimplex(rng, nObjectives)
			}
			group = append(group, space.Sample(rng))
		}
		if err := evaluate(); err != nil {
			return evals, err
		}
	}
	return evals, nil
}

// suggest fits surrogate + feasibility forests on the history and returns
// the candidate maximizing constrained Expected Improvement. The two
// forests fit concurrently (their trees in turn parallelize over the
// shared pool), and the candidate pool is scored in parallel batches with
// a lowest-index tie-break, so the suggestion is deterministic at any
// pool size.
func suggest(space Space, cfg Config, rng *rand.Rand, hist *history, incumbent float64, incumbentX []float64, scratch *suggestScratch) ([]float64, error) {
	// Seeds are drawn on the caller, before concurrent dispatch, in the
	// same order whether or not the feasibility model ends up used.
	fcfg := cfg.Forest
	surrogateCfg := fcfg
	surrogateCfg.Seed = rng.Int63()
	var surrogate, feasModel *rf.Forest
	var surrogateErr, feasErr error
	if hist.nInfeasible > 0 {
		feasCfg := fcfg
		feasCfg.Seed = rng.Int63()
		parallel.Run(
			func() { surrogate, surrogateErr = scratch.surrogate.Train(surrogateCfg, hist.xs, hist.ys) },
			func() { feasModel, feasErr = scratch.feasibility.Train(feasCfg, hist.xs, hist.feas) },
		)
	} else {
		surrogate, surrogateErr = scratch.surrogate.Train(surrogateCfg, hist.xs, hist.ys)
	}
	if surrogateErr != nil {
		return nil, fmt.Errorf("bo: surrogate training: %w", surrogateErr)
	}
	if feasErr != nil {
		return nil, fmt.Errorf("bo: feasibility model training: %w", feasErr)
	}

	// Candidate pool: uniform exploration plus local perturbations of the
	// incumbent (the local-search refinement HyperMapper applies on top of
	// random acquisition sampling). Sampling stays serial on the run RNG;
	// only the model-driven scoring fans out.
	candidates := scratch.cands[:cfg.Candidates]
	nLocal := 0
	if incumbentX != nil {
		nLocal = cfg.Candidates / 4
	}
	for c := 0; c < cfg.Candidates-nLocal; c++ {
		space.sampleInto(rng, candidates[c])
	}
	for c := cfg.Candidates - nLocal; c < cfg.Candidates; c++ {
		perturbInto(space, rng, incumbentX, candidates[c])
	}

	eis := scratch.eis[:cfg.Candidates]
	parallel.For(len(candidates), 32, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x := candidates[i]
			ei := expectedImprovement(surrogate, x, incumbent)
			if feasModel != nil {
				p := feasModel.Predict(x)
				if p < 0 {
					p = 0
				}
				if p > 1 {
					p = 1
				}
				ei *= p
			}
			eis[i] = ei
		}
	})

	// Deterministic reduce: strict > keeps the lowest-index maximum, the
	// same winner the serial scan picked.
	bestEI := math.Inf(-1)
	var bestX []float64
	for i, ei := range eis {
		if ei > bestEI {
			bestEI = ei
			bestX = candidates[i]
		}
	}
	if bestX == nil { // all-EI-zero degenerate case: explore randomly
		return space.Sample(rng), nil
	}
	// Copy out of the scratch pool: the caller retains the suggestion
	// across later suggest calls.
	return append([]float64{}, bestX...), nil
}

// perturbInto writes a neighbour of x into dst (len == dims): each
// dimension is nudged by ~10% of its range (or to an adjacent
// ordinal/categorical value) with probability 1/2, then clipped to
// legality.
func perturbInto(space Space, rng *rand.Rand, x, dst []float64) {
	copy(dst, x)
	for i, p := range space.Params {
		if rng.Intn(2) == 0 {
			continue
		}
		switch p.Kind {
		case Real:
			dst[i] = p.Clip(dst[i] + rng.NormFloat64()*0.1*(p.Max-p.Min))
		case Integer:
			span := math.Max(1, 0.1*(p.Max-p.Min))
			dst[i] = p.Clip(dst[i] + math.Round(rng.NormFloat64()*span))
		default:
			dst[i] = p.Values[rng.Intn(len(p.Values))]
		}
	}
}

// expectedImprovement computes EI(x) = E[max(f(x) - best, 0)] under a
// normal posterior approximation N(mean, var) from the forest (the
// Mockus/Jones criterion the paper selects: "We select the Expected
// Improvement criterion", §5). With no incumbent it reduces to the
// predicted mean plus uncertainty bonus.
func expectedImprovement(f *rf.Forest, x []float64, incumbent float64) float64 {
	mean, variance := f.PredictVar(x)
	if math.IsInf(incumbent, -1) {
		return mean + math.Sqrt(variance)
	}
	sd := math.Sqrt(variance)
	if sd < 1e-12 {
		if d := mean - incumbent; d > 0 {
			return d
		}
		return 0
	}
	z := (mean - incumbent) / sd
	return (mean-incumbent)*stdNormCDF(z) + sd*stdNormPDF(z)
}

func stdNormPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
