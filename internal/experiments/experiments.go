// Package experiments regenerates every table and figure of the
// Homunculus evaluation (§5) on the bundled synthetic substrates: Table 2
// (baseline vs generated models), Table 3 (app chaining), Table 4 (model
// fusion), Table 5 (FPGA utilization), Figure 4 (BO regret for AD),
// Figure 6 (botnet vs benign histograms), Figure 7 (KMeans V-score under
// MAT budgets), and the §5.1.1 reaction-time comparison.
//
// Every searched row is compiled by the product: an Alchemy platform per
// row, datasets from internal/loaders, one fresh in-process
// homunculus.Service per entry point, and translation validation on, so a
// diverged verdict fails the experiment. What stays direct is what the
// compiler does not produce: the hand-tuned baselines, the chained
// baseline of Table 3, and the Pareto search and fusion of Table 4.
// cmd/experiments prints the full budget; EXPERIMENTS.md records that
// output beside the paper claim each table backs.
package experiments

import (
	"context"
	"fmt"

	"repro/alchemy"
	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/loaders"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/packet"
	"repro/internal/synth/botnet"

	homunculus "repro"
)

// Budget scales an experiment between bench-speed and paper-scale runs.
type Budget struct {
	// ADSamples / TCSamples are dataset sizes.
	ADSamples int
	TCSamples int
	// BDFlows is the botnet corpus size.
	BDFlows int
	// BOInit / BOIters is the optimization budget per algorithm family.
	BOInit  int
	BOIters int
	// Epochs bounds per-candidate training.
	Epochs int
	Seed   int64
}

// Full is the budget used by cmd/experiments for the recorded results.
func Full() Budget {
	return Budget{
		ADSamples: 6000, TCSamples: 5000, BDFlows: 1200,
		BOInit: 5, BOIters: 15, Epochs: 14, Seed: 1,
	}
}

// Quick is the bench-friendly budget: same code paths, smaller numbers.
// The optimization budget (5 init + 7 iterations) is the floor at which
// the searches reliably clear the paper's qualitative claims (Homunculus
// beats the hand-tuned baselines, bigger table budgets don't score worse);
// the fast inner loops keep it comfortably sub-second per experiment.
func Quick() Budget {
	return Budget{
		ADSamples: 1200, TCSamples: 1000, BDFlows: 200,
		BOInit: 5, BOIters: 7, Epochs: 5, Seed: 1,
	}
}

// Validate reports budget errors. The seed must be positive: the loaders
// read seed 0 as "generator default", so Seed 0 (or -1, -2, which the
// per-application offsets carry to 0) would silently swap the corpus.
func (b Budget) Validate() error {
	if b.ADSamples < 100 || b.TCSamples < 100 || b.BDFlows < 20 {
		return fmt.Errorf("experiments: dataset budgets too small: %+v", b)
	}
	if b.BOInit < 1 || b.BOIters < 0 || b.Epochs < 1 {
		return fmt.Errorf("experiments: optimization budgets too small: %+v", b)
	}
	if b.Seed < 1 {
		return fmt.Errorf("experiments: seed must be at least 1, got %d", b.Seed)
	}
	return nil
}

// SearchConfig is the search configuration of a budget: the default
// design space with the budget's BO, training and seed settings.
func (b Budget) SearchConfig() core.SearchConfig {
	cfg := core.DefaultSearchConfig()
	cfg.BO.InitSamples = b.BOInit
	cfg.BO.Iterations = b.BOIters
	cfg.TrainEpochs = b.Epochs
	cfg.Seed = b.Seed
	return cfg
}

// The three applications' corpora. Each draws from its canonical loader
// at a distinct seed offset.
func adLoader(b Budget) alchemy.DataLoader { return loaders.NSLKDD(b.ADSamples, b.Seed) }
func tcLoader(b Budget) alchemy.DataLoader { return loaders.IoTTC(b.TCSamples, b.Seed+1) }

// bdLoader is the botnet corpus after the BD DataLoader's preprocessing
// step: every flowmarker converted to per-histogram frequencies
// (botnet.Frequencies), so a model trained on flow-level histograms
// classifies the per-packet partial ones of the test split (§5.1.2).
func bdLoader(b Budget) alchemy.DataLoader {
	raw := loaders.Botnet(b.BDFlows, b.Seed+2)
	return alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		data, err := raw.Load()
		if err != nil {
			return nil, err
		}
		for _, rows := range [][][]float64{data.TrainX, data.TestX} {
			for _, x := range rows {
				botnet.Frequencies(x, packet.PaperBD)
			}
		}
		return data, nil
	})
}

// bdFlows regenerates the raw botnet corpus behind bdLoader, for the
// experiments that read packets rather than features (Figure 6, the
// reaction-time stream).
func bdFlows(b Budget) ([]botnet.Flow, error) {
	cfg := botnet.DefaultConfig()
	cfg.Flows = b.BDFlows
	cfg.Seed = b.Seed + 2
	return botnet.Generate(cfg)
}

// datasets materializes a loader's train/test split.
func datasets(l alchemy.DataLoader) (train, test *dataset.Dataset, err error) {
	data, err := l.Load()
	if err != nil {
		return nil, nil, err
	}
	return data.Datasets()
}

// job is one searched row: a model scheduled alone on a platform, under
// a search configuration.
type job struct {
	kind   string            // registered backend kind
	tables int               // MAT table budget; 0 keeps the platform default
	model  *alchemy.Model    // the one scheduled model
	search core.SearchConfig // BO budget, design-space bounds, seed
}

// compile submits every job to one fresh in-process Service — fresh, so
// repeated runs never turn into cache hits — with translation validation
// on, and returns each job's compiled app in order. A job whose compiled
// model diverges from its emitted artifacts fails the experiment; a job
// that finds no feasible model returns an app with a nil Model for the
// caller to judge.
func compile(jobs []job) ([]homunculus.AppResult, error) {
	svc := homunculus.New(homunculus.ServiceOptions{})
	defer svc.Close()
	ctx := context.Background()
	handles := make([]*homunculus.Job, len(jobs))
	for i, j := range jobs {
		p, err := alchemy.PlatformFor(j.kind)
		if err != nil {
			return nil, err
		}
		p.Constrain(alchemy.Constraints{Resources: alchemy.Resources{Tables: j.tables}})
		p.Schedule(j.model)
		if handles[i], err = svc.Submit(ctx, p, homunculus.WithSearchConfig(j.search), homunculus.WithValidation()); err != nil {
			return nil, fmt.Errorf("experiments: submit %s on %s: %w", j.model.Spec.Name, j.kind, err)
		}
	}
	apps := make([]homunculus.AppResult, len(jobs))
	for i, h := range handles {
		pipe, err := h.Wait(ctx)
		if err != nil {
			return nil, fmt.Errorf("experiments: compile %s on %s: %w", jobs[i].model.Spec.Name, jobs[i].kind, err)
		}
		app := pipe.Apps[0]
		if app.Model != nil && !app.Validation.OK() {
			return nil, fmt.Errorf("experiments: %s on %s: %s", app.Name, pipe.Platform, app.Validation)
		}
		apps[i] = app
	}
	return apps, nil
}

// trajectory is the BO run of the family the compiler selected (empty
// when no family found a feasible model).
func trajectory(app homunculus.AppResult) bo.Result {
	for _, c := range app.Candidates {
		if c.Algorithm.String() == app.Algorithm {
			return c.BO
		}
	}
	return bo.Result{}
}

// trainBaselineDNN trains a fixed hand-tuned architecture — the paper's
// baselines (Base-AD from Taurus, Base-TC hand-written, Base-BD from
// FlowLens) with conventional hyperparameters.
func trainBaselineDNN(name string, train, test *dataset.Dataset, hidden []int, classes, epochs int, seed int64) (*ir.Model, float64, error) {
	norm := dataset.FitNormalizer(train)
	trn := train.Clone()
	tst := test.Clone()
	norm.Apply(trn)
	norm.Apply(tst)
	cfg := nn.Config{
		Inputs:     train.Features(),
		Hidden:     hidden,
		Outputs:    classes,
		Activation: nn.ReLU,
		Optimizer:  nn.Adam,
		LearnRate:  0.01,
		BatchSize:  32,
		Epochs:     epochs,
		Seed:       seed,
	}
	net, err := nn.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	if _, err := net.Train(trn); err != nil {
		return nil, 0, err
	}
	model := ir.FromNN(name, net, fixed.Q8_8)
	model.FeatureNames = train.FeatureNames
	f1, err := scoreF1(model, tst)
	if err != nil {
		return nil, 0, err
	}
	model.Mean = append([]float64{}, norm.Mean...)
	model.Std = append([]float64{}, norm.Std...)
	return model, f1, nil
}

// scoreF1 evaluates quantized F1 (binary class-1 or macro).
func scoreF1(m *ir.Model, test *dataset.Dataset) (float64, error) {
	pred, err := m.PredictQ(test)
	if err != nil {
		return 0, err
	}
	n := metrics.NumClasses(test.Y, pred)
	conf := metrics.FromLabels(test.Y, pred, n)
	if n == 2 {
		return conf.F1(1), nil
	}
	return conf.MacroF1(), nil
}
