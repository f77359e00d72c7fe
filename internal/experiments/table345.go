package experiments

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fpga"
	"repro/internal/ir"
	"repro/internal/synth/nslkdd"
)

// Table3Row mirrors Table 3: resource scaling for chaining strategies.
type Table3Row struct {
	Strategy  string
	CUs, MUs  int
	LatencyNS float64
}

// Table3 chains four copies of the anomaly-detection DNN in the paper's
// three configurations and reports total fabric resources. The paper's
// point: totals are identical across strategies because inter-model glue
// folds into existing CUs.
func Table3(b Budget) ([]Table3Row, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	train, test, err := datasets(adLoader(b))
	if err != nil {
		return nil, err
	}
	model, _, err := trainBaselineDNN("ad", train, test, []int{12, 6, 3}, 2, b.Epochs, b.Seed)
	if err != nil {
		return nil, err
	}
	target, err := backend.Build(backend.Spec{Kind: "taurus"})
	if err != nil {
		return nil, err
	}
	l := func() *core.Composition { return core.Leaf(model) }
	cases := []struct {
		name string
		comp *core.Composition
	}{
		{"DNN > DNN > DNN > DNN", core.Chain(l(), l(), l(), l())},
		{"DNN | DNN | DNN | DNN", core.Parallel(l(), l(), l(), l())},
		{"DNN > (DNN | DNN) > DNN", core.Chain(l(), core.Parallel(l(), l()), l())},
	}
	var rows []Table3Row
	for _, c := range cases {
		v, err := core.EstimateComposition(target, c.comp)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			Strategy:  c.name,
			CUs:       int(v.Metrics["cus"]),
			MUs:       int(v.Metrics["mus"]),
			LatencyNS: v.Metrics["latency_ns"],
		})
	}
	return rows, nil
}

// FormatTable3 renders the chaining table.
func FormatTable3(rows []Table3Row) string {
	s := fmt.Sprintf("%-28s %6s %6s %12s\n", "Model", "CUs", "MUs", "Latency(ns)")
	for _, r := range rows {
		s += fmt.Sprintf("%-28s %6d %6d %12.0f\n", r.Strategy, r.CUs, r.MUs, r.LatencyNS)
	}
	return s
}

// Table4Row mirrors Table 4: fused resource usage.
type Table4Row struct {
	Application string
	PCUs, PMUs  int
	F1          float64
}

// Table4 splits the AD dataset into two feature-overlapping halves,
// searches a model for each half independently, then fuses them into a
// single model serving both datasets (§3.2.5) and compares resources.
func Table4(b Budget) ([]Table4Row, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	train, test, err := datasets(adLoader(b))
	if err != nil {
		return nil, err
	}
	target, err := backend.Build(backend.Spec{Kind: "taurus"})
	if err != nil {
		return nil, err
	}
	cfg := b.SearchConfig()
	cfg.Algorithms = []ir.Kind{ir.DNN}

	// Feature-overlapping halves (different sample halves, views sharing
	// all but one feature each).
	part1Train, part2Train, err := splitHalves(train)
	if err != nil {
		return nil, err
	}
	part1Test, part2Test, err := splitHalves(test)
	if err != nil {
		return nil, err
	}
	app1 := core.App{Name: "ad_part1", Train: part1Train, Test: part1Test, Normalize: true}
	app2 := core.App{Name: "ad_part2", Train: part2Train, Test: part2Test, Normalize: true}

	// Each deployment is sized by the accuracy-vs-CUs Pareto search rather
	// than the pure accuracy search: the paper's framing is that "the most
	// efficient model will use as many resources as needed without
	// over-provisioning" (§3), so every row reports the cheapest model
	// within one F1 point of its frontier's best.
	res1, err := core.SearchPareto(context.Background(), app1, target, cfg, ir.DNN)
	if err != nil {
		return nil, err
	}
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 7
	res2, err := core.SearchPareto(context.Background(), app2, target, cfg2, ir.DNN)
	if err != nil {
		return nil, err
	}
	fusedApp, err := core.Fuse(app1, app2)
	if err != nil {
		return nil, err
	}
	cfg3 := cfg
	cfg3.Seed = cfg.Seed + 13
	resF, err := core.SearchPareto(context.Background(), fusedApp, target, cfg3, ir.DNN)
	if err != nil {
		return nil, err
	}
	rows := make([]Table4Row, 0, 3)
	for _, item := range []struct {
		name string
		res  *core.ParetoSearchResult
	}{{"AD: Part 1", res1}, {"AD: Part 2", res2}, {"AD: Fused", resF}} {
		pick, err := paretoPick(item.res)
		if err != nil {
			return nil, fmt.Errorf("experiments: table4 %s: %w", item.name, err)
		}
		rows = append(rows, Table4Row{
			Application: item.name,
			PCUs:        int(pick.Verdict.Metrics["cus"]),
			PMUs:        int(pick.Verdict.Metrics["mus"]),
			F1:          pick.Metric * 100,
		})
	}
	return rows, nil
}

// paretoPick selects the deployment point from a frontier: the cheapest
// model whose metric is within one F1 point (0.01) of the frontier's best.
func paretoPick(res *core.ParetoSearchResult) (core.ParetoPoint, error) {
	if len(res.Front) == 0 {
		return core.ParetoPoint{}, fmt.Errorf("empty Pareto front")
	}
	best := 0.0
	for _, p := range res.Front {
		if p.Metric > best {
			best = p.Metric
		}
	}
	for _, p := range res.Front { // fronts are sorted by ascending resource
		if p.Metric >= best-0.01 {
			return p, nil
		}
	}
	return res.Front[len(res.Front)-1], nil
}

// splitHalves divides a dataset into the two feature-overlapping halves
// of the fusion experiment.
func splitHalves(d *dataset.Dataset) (*dataset.Dataset, *dataset.Dataset, error) {
	return nslkdd.SplitFeaturewise(d, rand.New(rand.NewSource(99)))
}

// FormatTable4 renders the fusion table.
func FormatTable4(rows []Table4Row) string {
	s := fmt.Sprintf("%-12s %6s %6s %8s\n", "Application", "PCUs", "PMUs", "F1")
	for _, r := range rows {
		s += fmt.Sprintf("%-12s %6d %6d %8.2f\n", r.Application, r.PCUs, r.PMUs, r.F1)
	}
	return s
}

// Table5Row mirrors Table 5: FPGA testbed utilization.
type Table5Row struct {
	Application string
	Model       string
	LUTPct      float64
	FFPct       float64
	BRAMPct     float64
	PowerW      float64
}

// Table5 maps the six Table-2 models (plus the bare loopback) through the
// Alveo U250 utilization model.
func Table5(b Budget) ([]Table5Row, error) {
	models, err := table2Models(b)
	if err != nil {
		return nil, err
	}
	shell := fpga.U250Shell()
	loop, err := fpga.Estimate(shell, nil)
	if err != nil {
		return nil, err
	}
	rows := []Table5Row{{
		Application: "Loopback", Model: "-",
		LUTPct: loop.LUTPct, FFPct: loop.FFPct, BRAMPct: loop.BRAMPct, PowerW: loop.PowerW,
	}}
	for _, m := range models {
		rep, err := fpga.Estimate(shell, m.model)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table5Row{
			Application: m.name, Model: "DNN",
			LUTPct: rep.LUTPct, FFPct: rep.FFPct, BRAMPct: rep.BRAMPct, PowerW: rep.PowerW,
		})
	}
	return rows, nil
}

// FormatTable5 renders the utilization table.
func FormatTable5(rows []Table5Row) string {
	s := fmt.Sprintf("%-10s %6s %8s %8s %8s %10s\n", "Application", "Model", "LUT%", "FFs%", "BRAM%", "Power(W)")
	for _, r := range rows {
		s += fmt.Sprintf("%-10s %6s %8.2f %8.2f %8.2f %10.3f\n",
			r.Application, r.Model, r.LUTPct, r.FFPct, r.BRAMPct, r.PowerW)
	}
	return s
}
