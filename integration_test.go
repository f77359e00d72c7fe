package homunculus

// End-to-end integration tests: the full declarative path (Alchemy →
// optimization core → backend codegen) on every platform, plus
// cross-stage consistency checks that tie the public API's outputs to the
// underlying substrates.

import (
	"context"
	"strings"
	"testing"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/synth/iottc"
	"repro/internal/synth/nslkdd"
	"repro/internal/taurus"
)

func nslkddLoader(samples int, seed int64) alchemy.DataLoader {
	return alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		cfg := nslkdd.DefaultConfig()
		cfg.Samples = samples
		cfg.Seed = seed
		train, test, err := nslkdd.TrainTest(cfg)
		if err != nil {
			return nil, err
		}
		d := &alchemy.Data{FeatureNames: train.FeatureNames}
		for i := 0; i < train.Len(); i++ {
			d.TrainX = append(d.TrainX, append([]float64{}, train.X.Row(i)...))
			d.TrainY = append(d.TrainY, train.Y[i])
		}
		for i := 0; i < test.Len(); i++ {
			d.TestX = append(d.TestX, append([]float64{}, test.X.Row(i)...))
			d.TestY = append(d.TestY, test.Y[i])
		}
		return d, nil
	})
}

func iottcLoader(samples int, seed int64) alchemy.DataLoader {
	return alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		cfg := iottc.DefaultConfig()
		cfg.Samples = samples
		cfg.Seed = seed
		train, test, err := iottc.TrainTest(cfg)
		if err != nil {
			return nil, err
		}
		d := &alchemy.Data{FeatureNames: train.FeatureNames}
		for i := 0; i < train.Len(); i++ {
			d.TrainX = append(d.TrainX, append([]float64{}, train.X.Row(i)...))
			d.TrainY = append(d.TrainY, train.Y[i])
		}
		for i := 0; i < test.Len(); i++ {
			d.TestX = append(d.TestX, append([]float64{}, test.X.Row(i)...))
			d.TestY = append(d.TestY, test.Y[i])
		}
		return d, nil
	})
}

func integrationSearch() core.SearchConfig {
	cfg := core.DefaultSearchConfig()
	cfg.BO.InitSamples = 3
	cfg.BO.Iterations = 4
	cfg.BO.Candidates = 100
	cfg.MaxHiddenLayers = 2
	cfg.MaxNeurons = 10
	cfg.TrainEpochs = 8
	return cfg
}

// TestEndToEndADOnTaurus is the Figure-3 scenario through the public API,
// with every cross-stage invariant checked: the reported metric must be
// achievable by the shipped model, the resource verdict must match a
// fresh backend estimate, and the pipeline simulator must agree with the
// quantized executor.
func TestEndToEndADOnTaurus(t *testing.T) {
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name:               "anomaly_detection",
		OptimizationMetric: "f1",
		Algorithms:         []string{"dnn"},
		DataLoader:         nslkddLoader(2000, 1),
	})
	platform := alchemy.Taurus()
	platform.Constrain(alchemy.Constraints{
		Performance: alchemy.Performance{ThroughputGPkts: 1, LatencyNS: 500},
		Resources:   alchemy.Resources{Rows: 16, Cols: 16},
	})
	platform.Schedule(model)
	pipe, err := Generate(context.Background(), platform, WithSearchConfig(integrationSearch()))
	if err != nil {
		t.Fatal(err)
	}
	app := pipe.Apps[0]
	if app.Model == nil {
		t.Fatal("AD pipeline must compile")
	}
	if app.Metric < 0.6 {
		t.Fatalf("AD F1 %v implausibly low", app.Metric)
	}

	// Verdict must be reproducible from the model alone.
	target := backend.NewTaurusTarget()
	fresh, err := target.Estimate(stripNormIntegration(app.Model))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Metrics["cus"] != app.Verdict.Metrics["cus"] || fresh.Metrics["mus"] != app.Verdict.Metrics["mus"] {
		t.Fatalf("verdict not reproducible: %+v vs %+v", fresh.Metrics, app.Verdict.Metrics)
	}

	// The pipeline simulator must agree with the quantized executor on
	// fresh traffic and with the analytic stage count.
	sim, err := taurus.NewSim(taurus.DefaultGrid(), app.Model)
	if err != nil {
		t.Fatal(err)
	}
	if float64(sim.Stages()) != app.Verdict.Metrics["stages"] {
		t.Fatalf("sim %d stages, verdict says %v", sim.Stages(), app.Verdict.Metrics["stages"])
	}
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 200
	cfg.Seed = 99
	probe, err := nslkdd.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < probe.Len(); i++ {
		want, _ := app.Model.InferQ(probe.X.Row(i))
		got, _, err := sim.Process(probe.X.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("simulator and executor disagree at %d", i)
		}
	}

	// Generated code must reference the model's architecture.
	if !strings.Contains(app.Code, "@spatial") || !strings.Contains(app.Code, "anomaly_detection") {
		t.Fatal("generated code malformed")
	}

	// Serve the compiled pipeline on live traffic: deploy through the
	// service, replay fresh synthetic samples, and require the served
	// answers to match the bit-accurate quantized executor with stats
	// accounting for every request.
	svc := New(ServiceOptions{})
	defer svc.Close()
	dep, err := svc.CreateEndpointPipeline("ad", pipe, EndpointOptions{Serving: ServingConfig{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([][]float64, probe.Len())
	for i := range rows {
		rows[i] = probe.X.Row(i)
	}
	classes, dropped, err := dep.ClassifyBatch(rows)
	if err != nil || dropped != 0 {
		t.Fatalf("serve replay: err=%v dropped=%d", err, dropped)
	}
	for i, c := range classes {
		want, _ := app.Model.InferQ(probe.X.Row(i))
		if c != want {
			t.Fatalf("served class %d diverges from InferQ at %d", c, i)
		}
	}
	if st := dep.Stats().Merged; st.Completed < uint64(probe.Len()) || st.P99 == 0 {
		t.Fatalf("serving stats must cover the replay with nonzero p99: %+v", st)
	}
}

func stripNormIntegration(m *ir.Model) *ir.Model {
	c := *m
	c.Mean, c.Std = nil, nil
	return &c
}

// TestEndToEndAllPlatforms compiles the same declaration against each
// backend family.
func TestEndToEndAllPlatforms(t *testing.T) {
	cases := []struct {
		name     string
		platform *alchemy.Platform
		algs     []string
		metric   string
		codeSig  string
	}{
		{"taurus", alchemy.Taurus(), []string{"dtree"}, "f1", "@spatial"},
		{"tofino", alchemy.Tofino(), []string{"dtree"}, "f1", "v1model"},
		{"fpga", alchemy.FPGA(), []string{"dnn"}, "f1", "@spatial"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			model := alchemy.NewModel(alchemy.ModelSpec{
				Name:               "ad_" + tc.name,
				OptimizationMetric: tc.metric,
				Algorithms:         tc.algs,
				DataLoader:         nslkddLoader(1200, 2),
			})
			tc.platform.Schedule(model)
			pipe, err := Generate(context.Background(), tc.platform, WithSearchConfig(integrationSearch()))
			if err != nil {
				t.Fatal(err)
			}
			app := pipe.Apps[0]
			if app.Model == nil {
				t.Fatalf("%s: no model", tc.name)
			}
			if !strings.Contains(app.Code, tc.codeSig) {
				t.Fatalf("%s: code missing %q", tc.name, tc.codeSig)
			}
			if !app.Verdict.Feasible {
				t.Fatalf("%s: infeasible verdict", tc.name)
			}
		})
	}
}

// TestEndToEndClusteringBudgets runs the Figure-7 path through the public
// API: tighter MAT budgets must never improve the clustering quality.
func TestEndToEndClusteringBudgets(t *testing.T) {
	scores := map[int]float64{}
	for _, tables := range []int{2, 5} {
		model := alchemy.NewModel(alchemy.ModelSpec{
			Name:               "tc",
			OptimizationMetric: "vmeasure",
			Algorithms:         []string{"kmeans"},
			DataLoader:         iottcLoader(1500, 3),
		})
		platform := alchemy.Tofino()
		platform.Constrain(alchemy.Constraints{Resources: alchemy.Resources{Tables: tables}})
		platform.Schedule(model)
		cfg := integrationSearch()
		cfg.BO.Iterations = 8
		pipe, err := Generate(context.Background(), platform, WithSearchConfig(cfg))
		if err != nil {
			t.Fatal(err)
		}
		if pipe.Apps[0].Model == nil {
			t.Fatalf("%d tables: no model", tables)
		}
		if got := pipe.Apps[0].Verdict.Metrics["tables"]; got > float64(tables) {
			t.Fatalf("%d-table budget violated: used %v", tables, got)
		}
		scores[tables] = pipe.Apps[0].Metric
	}
	// Allow a little search noise (the feasible region of 2 tables is a
	// subset of 5 tables, but the BO trajectories differ once feasibility
	// flags diverge).
	if scores[5] < scores[2]-0.02 {
		t.Fatalf("more tables must not hurt: %v", scores)
	}
}

// TestEndToEndCompositionFeasibility: a composition whose members fit
// individually can still blow the grid collectively; the pipeline-level
// verdict must catch it.
func TestEndToEndCompositionFeasibility(t *testing.T) {
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name:       "ad",
		Algorithms: []string{"dnn"},
		DataLoader: nslkddLoader(1200, 4),
	})
	platform := alchemy.Taurus()
	// Tiny grid: one copy fits, six copies cannot.
	platform.Constrain(alchemy.Constraints{Resources: alchemy.Resources{Rows: 6, Cols: 6}})
	platform.Schedule(alchemy.Par(model, model, model, model, model, model))
	cfg := integrationSearch()
	pipe, err := Generate(context.Background(), platform, WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Apps[0].Model == nil {
		t.Fatal("single model must fit the small grid")
	}
	if pipe.Composition == nil {
		t.Fatal("composition verdict missing")
	}
	if pipe.Composition.Feasible {
		t.Fatal("six copies must not fit a 6x6 grid")
	}
	if pipe.Composition.Reason == "" {
		t.Fatal("infeasible composition must explain itself")
	}
}
