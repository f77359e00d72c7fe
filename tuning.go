package homunculus

// Autopilot serving: the Service-level face of internal/tune. Tune
// replays a trace against sandboxed serving runtimes of a compiled
// model under Bayesian-optimized candidate configs, and returns the
// Pareto frontier over {p99, throughput, drop rate} plus the chosen
// canonical ServingConfig meeting the SLO. TuneEndpoint tunes a live
// endpoint's stable model and can apply the winner in place over the
// atomic rollout path. See docs/tuning.md.

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/ir"
	"repro/internal/tune"
)

// ErrTuneInfeasible reports that no evaluated configuration met the
// SLO; errors.As against *TuneInfeasibleError for the closest miss.
var ErrTuneInfeasible = tune.ErrInfeasible

// TuneInfeasibleError carries the SLO, its violations at the closest
// miss, and that closest-miss candidate.
type TuneInfeasibleError = tune.InfeasibleError

// TuneReport is the tuner's result: the evaluated candidates, the
// Pareto frontier, and the chosen feasible config.
type TuneReport = tune.Report

// TuneOptions shapes a tuning run. Zero values select defaults.
type TuneOptions struct {
	// SLO is the comma-separated objective bound list, e.g.
	// "p99<=2ms,drops=0" (see docs/tuning.md for the full syntax).
	// Required.
	SLO string
	// Seed fixes the optimizer's randomness: same seed + same trace =
	// same frontier and chosen config.
	Seed int64
	// Budget caps total candidate evaluations (default 24, min 4).
	Budget int
	// Clients is the replay concurrency (default 8).
	Clients int
	// MaxShards bounds the shard-count axis (default GOMAXPROCS).
	MaxShards int
	// App selects the application to tune in a multi-model pipeline
	// (Service.Tune only; empty = first deployable).
	App string
	// Trace is the feature-vector workload to replay. Nil generates a
	// deterministic synthetic trace of TraceSamples uniform vectors.
	Trace [][]float64
	// TraceSamples sizes the synthetic trace (default 512).
	TraceSamples int
	// Apply, on TuneEndpoint, applies the chosen config to the endpoint
	// through the atomic rollout path once tuning succeeds.
	Apply bool
}

// syntheticTrace builds a deterministic workload: n uniform vectors in
// [-1,1)^inputs from the given seed.
func syntheticTrace(inputs, n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
	xs := make([][]float64, n)
	for i := range xs {
		x := make([]float64, inputs)
		for d := range x {
			x[d] = rng.Float64()*2 - 1
		}
		xs[i] = x
	}
	return xs
}

// tuneModel runs the offline tuner over one model.
func tuneModel(ctx context.Context, model *ir.Model, opts TuneOptions) (*TuneReport, error) {
	slo, err := tune.ParseSLO(opts.SLO)
	if err != nil {
		return nil, fmt.Errorf("homunculus: tune: %w", err)
	}
	xs := opts.Trace
	if xs == nil {
		n := opts.TraceSamples
		if n <= 0 {
			n = 512
		}
		xs = syntheticTrace(model.Inputs, n, opts.Seed)
	}
	return tune.Run(ctx, model, xs, tune.Options{
		Seed:      opts.Seed,
		Budget:    opts.Budget,
		SLO:       slo,
		Clients:   opts.Clients,
		MaxShards: opts.MaxShards,
	})
}

// Tune runs the offline serving tuner against a finished job's
// compiled model without touching any live endpoint: candidate
// configs serve the trace in sandboxed runtimes, and the report's
// Chosen.Config is ready to pass as EndpointOptions.Serving or PUT to
// an endpoint's config route. Fails with ErrTuneInfeasible (wrapping
// a *TuneInfeasibleError) when nothing meets the SLO.
func (s *Service) Tune(ctx context.Context, jobID string, opts TuneOptions) (*TuneReport, error) {
	pipe, err := s.jobPipeline(jobID)
	if err != nil {
		return nil, err
	}
	app, err := selectApp(pipe, opts.App)
	if err != nil {
		return nil, err
	}
	return tuneModel(ctx, app.Model, opts)
}

// TuneEndpoint tunes a live endpoint's stable model. The endpoint
// keeps serving untouched while candidates replay in sandboxed
// runtimes; with opts.Apply the chosen config is then applied through
// the endpoint's atomic rollout path (ApplyConfig), so the previous
// configuration stays one Rollback away.
func (s *Service) TuneEndpoint(ctx context.Context, name string, opts TuneOptions) (*TuneReport, error) {
	e, ok := s.Endpoint(name)
	if !ok {
		return nil, fmt.Errorf("homunculus: tune: no such endpoint %q", name)
	}
	model := e.Model()
	if model == nil {
		return nil, ErrEndpointClosed
	}
	rep, err := tuneModel(ctx, model, opts)
	if err != nil {
		return rep, err
	}
	if opts.Apply {
		if _, err := e.ApplyConfig(rep.Chosen.Config); err != nil {
			return rep, fmt.Errorf("homunculus: tune: apply chosen config: %w", err)
		}
	}
	return rep, nil
}
