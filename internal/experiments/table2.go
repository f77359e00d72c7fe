package experiments

import (
	"fmt"
	"strings"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/ir"
)

// Table2Row mirrors one row of Table 2: hand-tuned baseline vs
// Homunculus-generated model for AD, TC, and BD.
type Table2Row struct {
	Application string
	Features    int
	Params      int
	F1          float64 // percent, as the paper reports
	CUs         int
	MUs         int
	Hidden      []int // architecture, for the report
}

// Table2 regenerates the baseline-vs-Homunculus comparison (see
// table2Apps for the applications and baselines).
func Table2(b Budget) ([]Table2Row, error) {
	models, err := table2Models(b)
	if err != nil {
		return nil, err
	}
	rows := make([]Table2Row, 0, len(models))
	for _, m := range models {
		rows = append(rows, Table2Row{
			Application: m.name,
			Features:    m.model.Inputs,
			Params:      m.model.ParamCount(),
			F1:          m.f1 * 100,
			CUs:         int(m.verdict.Metrics["cus"]),
			MUs:         int(m.verdict.Metrics["mus"]),
			Hidden:      m.model.HiddenWidths(),
		})
	}
	return rows, nil
}

// table2Model is one model behind Tables 2 and 5 with its scores.
type table2Model struct {
	name    string
	model   *ir.Model
	f1      float64
	verdict core.Verdict
}

// table2App is one application of Tables 2 and 5: its corpus, the
// hand-tuned baseline's architecture, and the Homunculus row's
// compilation.
type table2App struct {
	app     string // row suffix: AD, TC, BD
	loader  alchemy.DataLoader
	hidden  []int // baseline hidden widths
	classes int
	hom     job
}

// table2Apps declares the three applications in row order. Each compiles
// a DNN on the Taurus platform (16×16 grid at 1 GPkt/s / 500 ns) and
// seeds both its baseline and its search at its row offset. The baseline
// architectures are the paper's:
//   - Base-AD: the Taurus anomaly-detection DNN, hidden (12, 6, 3);
//   - Base-TC: the hand-written traffic-classification DNN, hidden
//     (10, 10, 5);
//   - Base-BD: the FlowLens-style botnet DNN, 4 hidden layers of 10.
func table2Apps(b Budget) []table2App {
	apps := []table2App{
		{app: "AD", loader: adLoader(b), hidden: []int{12, 6, 3}, classes: 2},
		{app: "TC", loader: tcLoader(b), hidden: []int{10, 10, 5}, classes: 5},
		{app: "BD", loader: bdLoader(b), hidden: []int{10, 10, 10, 10}, classes: 2},
	}
	names := []string{"anomaly_detection", "traffic_classification", "botnet_detection"}
	for i := range apps {
		search := b.SearchConfig()
		search.Seed = b.Seed + int64(i)
		if apps[i].app == "BD" {
			// The BD search space follows the architecture family the
			// paper's search converged to — many narrow layers ("10 hidden
			// layers with smaller neuron count per layer") — bounding
			// neurons low and layers high so deep-narrow architectures are
			// reachable.
			search.MaxHiddenLayers = 8
			search.MaxNeurons = 12
		}
		apps[i].hom = job{kind: "taurus", search: search, model: alchemy.NewModel(alchemy.ModelSpec{
			Name: names[i], Algorithms: []string{"dnn"}, DataLoader: apps[i].loader,
		})}
	}
	return apps
}

// table2Models builds the six models behind Tables 2 and 5, in row
// order: per application, the hand-tuned baseline (trained directly,
// estimated on the Taurus target) and the Homunculus model (compiled by
// the product).
func table2Models(b Budget) ([]table2Model, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	apps := table2Apps(b)
	jobs := make([]job, len(apps))
	for i, a := range apps {
		jobs[i] = a.hom
	}
	hom, err := compile(jobs)
	if err != nil {
		return nil, err
	}
	target, err := backend.Build(backend.Spec{Kind: "taurus"})
	if err != nil {
		return nil, err
	}
	var out []table2Model
	for i, a := range apps {
		if hom[i].Model == nil {
			return nil, fmt.Errorf("experiments: Hom-%s search found no feasible model", a.app)
		}
		train, test, err := datasets(a.loader)
		if err != nil {
			return nil, err
		}
		base, f1, err := trainBaselineDNN("base_"+strings.ToLower(a.app), train, test, a.hidden, a.classes, b.Epochs, b.Seed+int64(i))
		if err != nil {
			return nil, err
		}
		v, err := target.Estimate(base)
		if err != nil {
			return nil, err
		}
		out = append(out,
			table2Model{"Base-" + a.app, base, f1, v},
			table2Model{"Hom-" + a.app, hom[i].Model, hom[i].Metric, hom[i].Verdict})
	}
	return out, nil
}

// FormatTable2 renders rows in the paper's layout.
func FormatTable2(rows []Table2Row) string {
	s := fmt.Sprintf("%-10s %9s %9s %8s %6s %6s  %s\n", "Application", "Features", "#NNParam", "F1", "CUs", "MUs", "Hidden")
	for _, r := range rows {
		s += fmt.Sprintf("%-10s %9d %9d %8.2f %6d %6d  %v\n",
			r.Application, r.Features, r.Params, r.F1, r.CUs, r.MUs, r.Hidden)
	}
	return s
}
