package tune

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/bo"
	"repro/internal/ir"
	"repro/internal/serve"
)

// Metrics is one candidate configuration's measured serving behavior
// over the replayed trace.
type Metrics struct {
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// Throughput is delivered classifications per second; OfferedRate
	// the paced issue rate the replay targeted.
	Throughput  float64 `json:"throughput"`
	OfferedRate float64 `json:"offered_rate,omitempty"`
	Delivered   int     `json:"delivered"`
	Dropped     int     `json:"dropped"`
	Errors      int     `json:"errors,omitempty"`
	// DropRate is Dropped / issued.
	DropRate float64 `json:"drop_rate"`
	// MeanBatch is the runtime's average harvest-sweep size.
	MeanBatch float64 `json:"mean_batch,omitempty"`
}

// Candidate is one evaluated configuration: the canonical config, its
// measurements, and whether it met the SLO.
type Candidate struct {
	Config   serve.ServingConfig `json:"config"`
	Metrics  Metrics             `json:"metrics"`
	Feasible bool                `json:"feasible"`

	values []float64 // maximization objectives, for dominance tests
}

// Report is a completed tuning run: every evaluation, the Pareto
// frontier over {p99, throughput, drop rate}, and the chosen config
// (the feasible frontier point with the highest throughput,
// tie-broken by lower p99 then smaller batch).
type Report struct {
	SLO         string      `json:"slo"`
	Seed        int64       `json:"seed"`
	Samples     int         `json:"samples"`
	Evaluations []Candidate `json:"evaluations"`
	Front       []Candidate `json:"front"`
	Chosen      Candidate   `json:"chosen"`
}

// ErrInfeasible matches (errors.Is) the typed *InfeasibleError a
// tuning run returns when no evaluated configuration satisfies the
// SLO — the caller gets the diagnosis, never a junk config.
var ErrInfeasible = errors.New("tune: no configuration satisfies the SLO")

// InfeasibleError reports an SLO no candidate met, with the closest
// miss and its violated terms.
type InfeasibleError struct {
	SLO        string
	Violations []string
	Best       Candidate
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("tune: no configuration satisfies SLO %q (closest miss: %v)", e.SLO, e.Violations)
}

func (e *InfeasibleError) Is(target error) bool { return target == ErrInfeasible }

// Evaluator measures one candidate config against the trace. Run's
// default is ReplayEvaluator (sandboxed runtime + burst replay); tests
// and benchmarks inject SimEvaluator for deterministic landscapes.
type Evaluator func(ctx context.Context, cfg serve.ServingConfig) (Metrics, error)

// Options shapes a tuning run. The zero value is usable: 24-evaluation
// budget, synthetic burst pacing, auto-calibrated rate.
type Options struct {
	// Seed fixes every stochastic choice (BO sampling and
	// scalarization). Same seed + same trace + same evaluator ⇒
	// identical frontier and chosen config.
	Seed int64
	// Budget caps total candidate evaluations (default 24; minimum 4).
	Budget int
	// SLO constrains the frontier; infeasible runs fail with
	// *InfeasibleError.
	SLO SLO
	// Clients is the replay concurrency (default 8).
	Clients int
	// Rate is the mean offered load in requests/second for the burst
	// replay; 0 auto-calibrates to half the sequential service rate.
	Rate float64
	// Burst paces the replay (zero fields = serve.BurstOptions
	// defaults: 100× bursts of 2ms every 50ms).
	Burst serve.BurstOptions
	// MaxShards caps the shard-count axis (default GOMAXPROCS).
	MaxShards int
	// Evaluate overrides the measurement function (tests, benchmarks,
	// dry runs). Default: ReplayEvaluator over the given model+trace.
	Evaluate Evaluator
}

func (o Options) withDefaults() Options {
	if o.Budget <= 0 {
		o.Budget = 24
	}
	if o.Budget < 4 {
		o.Budget = 4
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.MaxShards <= 0 {
		o.MaxShards = runtime.GOMAXPROCS(0)
	}
	return o
}

// The knob space. Ordinal axes keep the search on meaningful
// power-of-two-ish values; the BO engine interpolates between them.
var (
	batchAxis = []float64{8, 16, 32, 64, 128, 256}
	delayAxis = []float64{0, 100, 250, 500, 1000, 2000} // µs
	queueAxis = []float64{256, 512, 1024, 2048, 4096}
)

func searchSpace(maxShards int) bo.Space {
	return bo.Space{Params: []bo.Param{
		{Name: "batch", Kind: bo.Ordinal, Values: batchAxis},
		{Name: "shards", Kind: bo.Integer, Min: 1, Max: float64(maxShards)},
		{Name: "delay_us", Kind: bo.Ordinal, Values: delayAxis},
		{Name: "queue", Kind: bo.Ordinal, Values: queueAxis},
		{Name: "adaptive", Kind: bo.Categorical, Values: []float64{0, 1}},
	}}
}

// configAt decodes a search-space point into a canonical config.
func configAt(x []float64) serve.ServingConfig {
	delay := int64(x[2]) * int64(time.Microsecond)
	return serve.ServingConfig{
		Version:       serve.ConfigVersion,
		BatchSize:     int(x[0]),
		Shards:        int(x[1]),
		MaxDelayNS:    &delay,
		QueueDepth:    int(x[3]),
		AdaptiveFlush: x[4] != 0,
	}
}

// objectives maps measurements to the three maximization axes:
// {-p99 µs, throughput, -drop%}.
func objectives(m Metrics) []float64 {
	return []float64{
		-float64(m.P99) / float64(time.Microsecond),
		m.Throughput,
		-m.DropRate * 100,
	}
}

// metricsMap flattens Metrics for the BO history.
func metricsMap(m Metrics) map[string]float64 {
	return map[string]float64{
		"p50_us":     float64(m.P50) / float64(time.Microsecond),
		"p99_us":     float64(m.P99) / float64(time.Microsecond),
		"throughput": m.Throughput,
		"drop_rate":  m.DropRate,
	}
}

// Run tunes model's serving configuration over the trace xs. It
// returns the full evaluation history, the Pareto frontier, and the
// chosen config — or *InfeasibleError when the SLO cannot be met
// within the budget.
func Run(ctx context.Context, model *ir.Model, xs [][]float64, opts Options) (*Report, error) {
	o := opts.withDefaults()
	eval := o.Evaluate
	if eval == nil {
		if model == nil {
			return nil, fmt.Errorf("tune: nil model")
		}
		if len(xs) == 0 {
			return nil, fmt.Errorf("tune: empty trace")
		}
		rate := o.Rate
		if rate <= 0 {
			r, err := Calibrate(model, xs)
			if err != nil {
				return nil, err
			}
			rate = r
		}
		burst := o.Burst
		burst.MeanRate = rate
		eval = ReplayEvaluator(model, xs, o.Clients, burst)
	}

	// Infeasible points still enter the history and inform the
	// surrogate; the scalarized acquisition excludes them.
	var evals []Candidate
	obj := func(x []float64) ([]float64, bool, map[string]float64, error) {
		cfg := configAt(x)
		m, err := eval(ctx, cfg)
		if err != nil {
			return nil, false, nil, fmt.Errorf("tune: evaluating %+v: %w", cfg, err)
		}
		c := Candidate{Config: cfg, Metrics: m, Feasible: len(o.SLO.Check(m)) == 0, values: objectives(m)}
		evals = append(evals, c)
		return c.values, c.Feasible, metricsMap(m), nil
	}

	init := o.Budget / 3
	if init < 2 {
		init = 2
	}
	cfg := bo.DefaultConfig()
	cfg.Seed = o.Seed
	cfg.InitSamples = init
	cfg.Iterations = o.Budget - init
	// InitSamples + Iterations == Budget: the schedule is the budget.
	if _, err := bo.MaximizeMulti(ctx, searchSpace(o.MaxShards), cfg, 3, obj); err != nil {
		return nil, err
	}

	rep := &Report{SLO: o.SLO.String(), Seed: o.Seed, Samples: len(xs), Evaluations: evals}
	rep.Front = paretoFront(evals)
	chosen, ok := choose(rep.Front)
	if !ok {
		best, violations := closestMiss(evals, o.SLO)
		return rep, &InfeasibleError{SLO: o.SLO.String(), Violations: violations, Best: best}
	}
	rep.Chosen = chosen
	return rep, nil
}

// paretoFront filters the feasible, non-dominated candidates.
func paretoFront(evals []Candidate) []Candidate {
	var front []Candidate
	for i, c := range evals {
		if !c.Feasible {
			continue
		}
		dominated := false
		for j, d := range evals {
			if i != j && d.Feasible && bo.Dominates(d.values, c.values) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, c)
		}
	}
	return front
}

// choose picks the frontier point with the highest throughput,
// tie-broken by lower p99, then smaller batch, shards and queue — all
// deterministic, so a fixed-seed run always names the same winner.
func choose(front []Candidate) (Candidate, bool) {
	if len(front) == 0 {
		return Candidate{}, false
	}
	best := front[0]
	for _, c := range front[1:] {
		if better(c, best) {
			best = c
		}
	}
	return best, true
}

func better(a, b Candidate) bool {
	const eps = 1e-9
	if d := a.Metrics.Throughput - b.Metrics.Throughput; d > eps || d < -eps {
		return d > 0
	}
	if a.Metrics.P99 != b.Metrics.P99 {
		return a.Metrics.P99 < b.Metrics.P99
	}
	if a.Config.BatchSize != b.Config.BatchSize {
		return a.Config.BatchSize < b.Config.BatchSize
	}
	if a.Config.Shards != b.Config.Shards {
		return a.Config.Shards < b.Config.Shards
	}
	return a.Config.QueueDepth < b.Config.QueueDepth
}

// closestMiss picks the infeasible candidate with the fewest violated
// SLO terms (then highest throughput) for the InfeasibleError.
func closestMiss(evals []Candidate, slo SLO) (Candidate, []string) {
	var best Candidate
	var bestV []string
	for _, c := range evals {
		v := slo.Check(c.Metrics)
		if bestV == nil || len(v) < len(bestV) ||
			(len(v) == len(bestV) && c.Metrics.Throughput > best.Metrics.Throughput) {
			best, bestV = c, v
		}
	}
	return best, bestV
}

// ReplayEvaluator measures a config by building a sandboxed runtime
// for the model and replaying the trace through the burst pacer —
// p50/p99 from the runtime's latency histogram, throughput and drops
// from the replay.
func ReplayEvaluator(model *ir.Model, xs [][]float64, clients int, burst serve.BurstOptions) Evaluator {
	return func(ctx context.Context, cfg serve.ServingConfig) (Metrics, error) {
		rt, err := serve.New(model, cfg)
		if err != nil {
			return Metrics{}, err
		}
		defer rt.Close()
		res, err := serve.ReplayBurst(ctx, rt, xs, nil, clients, nil, burst)
		if err != nil {
			return Metrics{}, err
		}
		st := rt.Stats()
		m := Metrics{
			P50:         st.P50,
			P99:         st.P99,
			Throughput:  res.Rate,
			OfferedRate: res.OfferedRate,
			Delivered:   res.Delivered,
			Dropped:     res.Dropped,
			Errors:      res.Errors,
			MeanBatch:   st.MeanBatch,
		}
		if res.Issued > 0 {
			m.DropRate = float64(res.Dropped) / float64(res.Issued)
		}
		return m, nil
	}
}

// Calibrate is serve.CalibrateRate against a fresh single-shard runtime
// of the model: the mean offered load a tuning run targets (half the
// measured sequential rate) — exposed so a caller can replay a chosen
// config for verification at the same pacing the tuner used.
func Calibrate(model *ir.Model, xs [][]float64) (float64, error) {
	rt, err := serve.New(model, serve.ServingConfig{Shards: 1})
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	return serve.CalibrateRate(rt, xs)
}

// Grid measures every config of a coarse knob grid — the AutoTM-style
// sweep the benchmark snapshot publishes, and the yardstick the tuner
// is asserted against (chosen config within 10% of the best grid point
// per objective).
func Grid(ctx context.Context, eval Evaluator, slo SLO, configs []serve.ServingConfig) ([]Candidate, error) {
	out := make([]Candidate, 0, len(configs))
	for _, cfg := range configs {
		m, err := eval(ctx, cfg)
		if err != nil {
			return out, fmt.Errorf("tune: grid point %+v: %w", cfg, err)
		}
		out = append(out, Candidate{Config: cfg, Metrics: m, Feasible: len(slo.Check(m)) == 0, values: objectives(m)})
	}
	return out, nil
}

// CoarseGrid is the published sweep: batch × flush-policy corners at
// the default shard count and queue depth.
func CoarseGrid(maxShards int) []serve.ServingConfig {
	if maxShards <= 0 {
		maxShards = runtime.GOMAXPROCS(0)
	}
	var out []serve.ServingConfig
	for _, batch := range []int{16, 64, 256} {
		for _, mode := range []struct {
			delayUS  int64
			adaptive bool
		}{{0, false}, {500, false}, {500, true}} {
			delay := mode.delayUS * int64(time.Microsecond)
			out = append(out, serve.ServingConfig{
				Version:       serve.ConfigVersion,
				BatchSize:     batch,
				Shards:        maxShards,
				MaxDelayNS:    &delay,
				QueueDepth:    1024,
				AdaptiveFlush: mode.adaptive,
			})
		}
	}
	return out
}
