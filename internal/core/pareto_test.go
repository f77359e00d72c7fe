package core

import (
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/ir"
)

func TestSearchParetoFrontier(t *testing.T) {
	app := smallApp(t, 20)
	cfg := fastSearchConfig()
	cfg.BO.InitSamples = 5
	cfg.BO.Iterations = 10
	res, err := SearchPareto(context.Background(), app, backend.NewTaurusTarget(), cfg, ir.DNN)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResourceKey != "cus" {
		t.Fatalf("resource key %q", res.ResourceKey)
	}
	if res.Evaluations != 15 {
		t.Fatalf("evaluations %d", res.Evaluations)
	}
	if len(res.Front) == 0 {
		t.Fatal("front must be non-empty")
	}
	// Each trade-off appears once.
	seen := map[[2]float64]bool{}
	for _, p := range res.Front {
		k := [2]float64{p.Metric, p.Resource}
		if seen[k] {
			t.Fatalf("trade-off (%v, %v) appears twice on the front", p.Metric, p.Resource)
		}
		seen[k] = true
	}
	// Front sorted by resource, and metric must increase with resource
	// (otherwise the cheaper point would dominate).
	for i := 1; i < len(res.Front); i++ {
		a, b := res.Front[i-1], res.Front[i]
		if b.Resource < a.Resource {
			t.Fatal("front not sorted by resource")
		}
		if b.Resource > a.Resource && b.Metric <= a.Metric {
			t.Fatalf("dominated point on front: (%v, %v) vs (%v, %v)", a.Metric, a.Resource, b.Metric, b.Resource)
		}
	}
	// Every front point carries a deployable model and feasible verdict.
	for _, p := range res.Front {
		if p.Model == nil {
			t.Fatal("front point without model")
		}
		if !p.Verdict.Feasible {
			t.Fatal("infeasible point on front")
		}
		if float64(int(p.Verdict.Metrics["cus"])) != p.Resource {
			t.Fatalf("resource mismatch: %v vs %v", p.Verdict.Metrics["cus"], p.Resource)
		}
	}
}

func TestSearchParetoMAT(t *testing.T) {
	app := smallApp(t, 21)
	cfg := fastSearchConfig()
	cfg.Metric = MetricVMeasure
	res, err := SearchPareto(context.Background(), app, backend.NewMATTarget(6), cfg, ir.KMeans)
	if err != nil {
		t.Fatal(err)
	}
	if res.ResourceKey != "tables" {
		t.Fatalf("resource key %q", res.ResourceKey)
	}
	for _, p := range res.Front {
		if p.Resource > 6 {
			t.Fatalf("front point exceeds table budget: %v", p.Resource)
		}
	}
}

func TestSearchParetoErrors(t *testing.T) {
	app := smallApp(t, 22)
	cfg := fastSearchConfig()
	if _, err := SearchPareto(context.Background(), app, nil, cfg, ir.DNN); err == nil {
		t.Fatal("nil target must error")
	}
	if _, err := SearchPareto(context.Background(), app, backend.NewMATTarget(8), cfg, ir.DNN); err == nil {
		t.Fatal("unsupported family must error")
	}
	bad := app
	bad.Name = ""
	if _, err := SearchPareto(context.Background(), bad, backend.NewTaurusTarget(), cfg, ir.DNN); err == nil {
		t.Fatal("invalid app must error")
	}
}
