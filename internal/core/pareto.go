package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/bo"
	"repro/internal/ir"
)

// Accuracy-vs-resources Pareto exploration. The design challenge §3 opens
// with is exactly this trade-off: "Certain models may provide better
// performance with additional resources; the most efficient model will
// use as many resources as needed without over-provisioning." Single-
// objective Search picks the best-metric feasible model; SearchPareto
// instead exposes the whole frontier so an operator (or a multi-app
// scheduler trying to pack several models onto one switch) can choose the
// accuracy/footprint point they need.

// ParetoPoint is one non-dominated (metric, resource) trade-off.
type ParetoPoint struct {
	Model    *ir.Model
	Metric   float64
	Resource float64 // primary resource consumption (lower is better)
	Verdict  Verdict
}

// ParetoSearchResult carries the frontier, sorted by ascending resource.
type ParetoSearchResult struct {
	Algorithm   ir.Kind
	ResourceKey string
	Front       []ParetoPoint
	Evaluations int
}

// SearchPareto runs a two-objective BO (maximize metric, minimize the
// target's binding resource, per target.ResourceKey) over one algorithm
// family and returns the feasible Pareto front. Cancellation follows the
// Search contract.
func SearchPareto(ctx context.Context, app App, target Target, cfg SearchConfig, kind ir.Kind) (*ParetoSearchResult, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	if !target.Supports(kind) {
		return nil, fmt.Errorf("core: target %s does not support %s", target.Name(), kind)
	}
	space, build := familySpace(app, cfg, kind)
	key := target.ResourceKey()
	data := prepare(app)

	// Keep the trained model of each evaluation so front entries can be
	// resolved back to deployable models. Keyed by evaluation index.
	var mu sync.Mutex
	evalCount := 0
	models := map[int]*ir.Model{}
	verdicts := map[int]Verdict{}

	boCfg := cfg.BO
	boCfg.Seed = cfg.Seed + int64(kind)*211

	objective := func(x []float64) ([]float64, bool, map[string]float64, error) {
		mu.Lock()
		evalCount++
		id := evalCount
		seed := cfg.Seed + int64(kind)*2000 + int64(id)
		mu.Unlock()

		model, verdict, metric, err := data.evaluate(build, x, seed, target, cfg.Metric)
		if err != nil {
			return nil, false, nil, err
		}
		if model == nil {
			return []float64{0, 0}, false, map[string]float64{"eval_id": float64(id)}, nil
		}
		resource := verdict.Metrics[key]
		mu.Lock()
		models[id] = model
		verdicts[id] = verdict
		mu.Unlock()
		metrics := map[string]float64{"eval_id": float64(id)}
		for k, v := range verdict.Metrics {
			metrics[k] = v
		}
		return []float64{metric, -resource}, verdict.Feasible, metrics, nil
	}

	multiRes, err := bo.MaximizeMulti(ctx, space, boCfg, 2, objective)
	if err != nil {
		return nil, fmt.Errorf("core: pareto search: %w", err)
	}

	out := &ParetoSearchResult{Algorithm: kind, ResourceKey: key, Evaluations: len(multiRes.History)}
	for _, ev := range multiRes.Front {
		id := int(ev.Metrics["eval_id"])
		m := models[id]
		if m == nil {
			continue
		}
		data.foldNormalizer(m)
		out.Front = append(out.Front, ParetoPoint{
			Model:    m,
			Metric:   ev.Values[0],
			Resource: -ev.Values[1],
			Verdict:  verdicts[id],
		})
	}
	// Sort ascending by resource (insertion sort: fronts are small).
	for i := 1; i < len(out.Front); i++ {
		for j := i; j > 0 && out.Front[j].Resource < out.Front[j-1].Resource; j-- {
			out.Front[j], out.Front[j-1] = out.Front[j-1], out.Front[j]
		}
	}
	return out, nil
}
