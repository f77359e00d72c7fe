package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/bo"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/kmeans"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/svm"
)

// App is one application to deploy: its datasets (from the Alchemy
// DataLoader) and identity.
type App struct {
	Name  string
	Train *dataset.Dataset
	Test  *dataset.Dataset
	// Normalize standardizes features with statistics fit on Train; the
	// affine is folded into the generated pipeline.
	Normalize bool
}

// Validate reports application errors.
func (a App) Validate() error {
	if a.Name == "" {
		return fmt.Errorf("core: app with empty name")
	}
	if a.Train == nil || a.Test == nil {
		return fmt.Errorf("core: app %q missing datasets", a.Name)
	}
	if err := a.Train.Validate(); err != nil {
		return fmt.Errorf("core: app %q train set: %w", a.Name, err)
	}
	if err := a.Test.Validate(); err != nil {
		return fmt.Errorf("core: app %q test set: %w", a.Name, err)
	}
	if a.Train.Features() != a.Test.Features() {
		return fmt.Errorf("core: app %q train/test feature mismatch %d vs %d",
			a.Name, a.Train.Features(), a.Test.Features())
	}
	if a.Train.Len() == 0 || a.Test.Len() == 0 {
		return fmt.Errorf("core: app %q has empty split", a.Name)
	}
	return nil
}

// Metric identifies the optimization objective (the Alchemy
// "optimization_metric").
type Metric string

// Supported objectives.
const (
	MetricF1       Metric = "f1"       // binary F1 (class 1) or macro-F1 for multiclass
	MetricAccuracy Metric = "accuracy" //
	MetricVMeasure Metric = "vmeasure" // clustering quality (KMeans)
)

// SearchConfig bounds the design space (§3.2.2) and the optimization
// budget.
type SearchConfig struct {
	// Algorithms to consider; empty means every family the target
	// supports ("If no algorithm is listed, Homunculus selects the best
	// performing algorithm from among the entire list", §3.1.1).
	Algorithms []ir.Kind
	Metric     Metric
	BO         bo.Config
	// Design-space bounds for DNN architecture search.
	MaxHiddenLayers int
	MaxNeurons      int
	// MaxClusters bounds KMeans K (clipped further by target budgets).
	MaxClusters int
	// TrainEpochs bounds the per-candidate training budget.
	TrainEpochs int
	// Format is the data-plane fixed-point format.
	Format fixed.Format
	Seed   int64
	// OnCandidate, when non-nil, observes family-level search progress:
	// one start event and one done event (carrying the result) per
	// algorithm family, including pruned families. The core serializes
	// calls, so the callback need not be thread-safe; it is observability
	// only and cannot influence the (deterministic) search.
	OnCandidate func(CandidateEvent)
}

// CandidateEvent is one family-level progress notification.
type CandidateEvent struct {
	App       string
	Algorithm ir.Kind
	// Done is false when the family's search starts, true when it
	// finishes (Result set) or is pruned upfront (Result.Skipped set).
	Done   bool
	Result *CandidateResult
}

// DefaultSearchConfig mirrors the evaluation's setup at laptop scale.
func DefaultSearchConfig() SearchConfig {
	cfg := SearchConfig{
		Metric:          MetricF1,
		BO:              bo.DefaultConfig(),
		MaxHiddenLayers: 4,
		MaxNeurons:      24,
		MaxClusters:     8,
		TrainEpochs:     14,
		Format:          fixed.Q8_8,
		Seed:            1,
	}
	cfg.BO.InitSamples = 5
	cfg.BO.Iterations = 15
	return cfg
}

// Validate reports configuration errors.
func (c SearchConfig) Validate() error {
	switch c.Metric {
	case MetricF1, MetricAccuracy, MetricVMeasure:
	default:
		return fmt.Errorf("core: unknown metric %q (accepted: %q, %q, %q)",
			c.Metric, MetricF1, MetricAccuracy, MetricVMeasure)
	}
	if c.MaxHiddenLayers < 1 || c.MaxNeurons < 2 {
		return fmt.Errorf("core: DNN bounds too small (%d layers, %d neurons)", c.MaxHiddenLayers, c.MaxNeurons)
	}
	if c.MaxClusters < 1 {
		return fmt.Errorf("core: MaxClusters must be >= 1, got %d", c.MaxClusters)
	}
	if c.TrainEpochs < 1 {
		return fmt.Errorf("core: TrainEpochs must be >= 1, got %d", c.TrainEpochs)
	}
	return c.BO.Validate()
}

// CandidateResult is the outcome of one algorithm family's search run.
type CandidateResult struct {
	Algorithm ir.Kind
	Model     *ir.Model // best feasible model (nil if none)
	Metric    float64
	Verdict   Verdict
	BO        bo.Result
	// Skipped is set when the family was pruned before search (§3.2.1).
	Skipped string
}

// SearchResult is the final model selection. Code generation is a
// separate pipeline stage: call target.Generate(res.Best.Model) on the
// selection (what homunculus.Generate's codegen stage does).
type SearchResult struct {
	App        string
	TargetName string
	Best       *CandidateResult
	Candidates []CandidateResult
}

// Search runs the full optimization core for one application on one
// target: candidate selection, parallel per-algorithm BO runs, and final
// model selection (Figure 2's middle box). Cancellation is cooperative:
// when ctx is done, in-flight family searches abort at their next BO
// evaluation and Search returns an error wrapping ctx.Err(); an undone
// ctx leaves fixed-seed results byte-identical at any pool size.
func Search(ctx context.Context, app App, target Target, cfg SearchConfig) (*SearchResult, error) {
	if err := app.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if target == nil {
		return nil, fmt.Errorf("core: nil target")
	}
	algorithms := cfg.Algorithms
	if len(algorithms) == 0 {
		algorithms = []ir.Kind{ir.DNN, ir.SVM, ir.KMeans, ir.DTree}
	}

	// Serialize OnCandidate notifications across concurrently finishing
	// families.
	var notifyMu sync.Mutex
	notify := func(ev CandidateEvent) {
		if cfg.OnCandidate == nil {
			return
		}
		notifyMu.Lock()
		defer notifyMu.Unlock()
		cfg.OnCandidate(ev)
	}

	// Phase 1: candidate selection — prune unsupported families (§3.2.1).
	type job struct {
		kind    ir.Kind
		skipped string
	}
	jobs := make([]job, 0, len(algorithms))
	for _, k := range algorithms {
		j := job{kind: k}
		if !target.Supports(k) {
			j.skipped = fmt.Sprintf("target %s cannot execute %s at line rate", target.Name(), k)
		}
		if cfg.Metric == MetricVMeasure && k != ir.KMeans {
			j.skipped = "vmeasure objective applies to clustering algorithms"
		}
		jobs = append(jobs, j)
	}

	// Phase 2: parallel candidate runs (§3.2.1 "the core initiates
	// multiple parallel runs"). Families run as tasks on the shared
	// worker pool rather than free goroutines: while family tasks hold
	// the pool's tokens, the tensor/forest kernels they call degrade to
	// their serial paths, so family-level and kernel-level parallelism
	// never oversubscribe the machine. Each family writes only its own
	// slot and is internally deterministic, so results are independent of
	// how the tasks get scheduled.
	data := prepare(app)
	results := make([]CandidateResult, len(jobs))
	errs := make([]error, len(jobs))
	tasks := make([]func(), 0, len(jobs))
	for i, j := range jobs {
		results[i].Algorithm = j.kind
		if j.skipped != "" {
			results[i].Skipped = j.skipped
			notify(CandidateEvent{App: app.Name, Algorithm: j.kind})
			notify(CandidateEvent{App: app.Name, Algorithm: j.kind, Done: true, Result: &results[i]})
			continue
		}
		i, kind := i, j.kind
		tasks = append(tasks, func() {
			notify(CandidateEvent{App: app.Name, Algorithm: kind})
			res, err := searchFamily(ctx, data, target, cfg, kind)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = res
			notify(CandidateEvent{App: app.Name, Algorithm: kind, Done: true, Result: &results[i]})
		})
	}
	runErr := parallel.RunCtx(ctx, tasks...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if runErr != nil {
		// Cancelled between families: no family reported the ctx error
		// itself, but some never ran.
		return nil, fmt.Errorf("core: search cancelled: %w", runErr)
	}

	// Phase 3: final model selection.
	out := &SearchResult{App: app.Name, TargetName: target.Name(), Candidates: results}
	for i := range results {
		r := &results[i]
		if r.Model == nil {
			continue
		}
		if out.Best == nil || r.Metric > out.Best.Metric {
			out.Best = r
		}
	}
	return out, nil
}

// prepared is an app's data as every candidate of every family sees it,
// made once per app: the normalised train and test sets, and the
// training set's presort, which the tree family's candidates share.
type prepared struct {
	app         App
	train, test *dataset.Dataset    // what candidates train and are scored on
	norm        *dataset.Normalizer // nil unless app.Normalize
	// sorted presorts train on first use; only tree candidates call it.
	sorted func() *dtree.Presorted
}

func prepare(app App) *prepared {
	p := &prepared{app: app, train: app.Train, test: app.Test}
	if app.Normalize {
		// Normalization is fit on the training set.
		p.norm = dataset.FitNormalizer(app.Train)
		p.train, p.test = app.Train.Clone(), app.Test.Clone()
		p.norm.Apply(p.train)
		p.norm.Apply(p.test)
	}
	p.sorted = sync.OnceValue(func() *dtree.Presorted { return dtree.Presort(p.train) })
	return p
}

// evaluate trains the candidate at design point x and measures it: the
// target's verdict and the quantized test metric. A training failure is
// an infeasible point, not an error, and returns a nil model. The model
// carries no normalization affine, so that estimation and scoring work on
// the already-normalized sets; foldNormalizer adds it to a model that is
// kept.
func (p *prepared) evaluate(build builder, x []float64, seed int64, target Target, metric Metric) (*ir.Model, Verdict, float64, error) {
	model, err := build(x, p, seed)
	if err != nil {
		return nil, Verdict{}, 0, nil
	}
	model.FeatureNames = p.app.Train.FeatureNames
	verdict, err := target.Estimate(model)
	if err != nil {
		return nil, Verdict{}, 0, err
	}
	score, err := scoreModel(model, p.test, metric)
	if err != nil {
		return nil, Verdict{}, 0, err
	}
	return model, verdict, score, nil
}

// foldNormalizer gives a model that leaves the search its own copy of the
// normalization affine: the pipeline receives raw features.
func (p *prepared) foldNormalizer(m *ir.Model) {
	if p.norm != nil {
		m.Mean = append([]float64{}, p.norm.Mean...)
		m.Std = append([]float64{}, p.norm.Std...)
	}
}

// searchFamily runs BO over one algorithm family's design space.
func searchFamily(ctx context.Context, data *prepared, target Target, cfg SearchConfig, kind ir.Kind) (CandidateResult, error) {
	space, build := familySpace(data.app, cfg, kind)
	res := CandidateResult{Algorithm: kind}

	evalCount := 0
	var mu sync.Mutex // protects evalCount and bests
	var bestModel *ir.Model
	var bestVerdict Verdict
	bestMetric := -1.0

	boCfg := cfg.BO
	boCfg.Seed = cfg.Seed + int64(kind)*101

	objective := func(x []float64) (float64, bool, map[string]float64, error) {
		mu.Lock()
		evalCount++
		seed := cfg.Seed + int64(kind)*1000 + int64(evalCount)
		mu.Unlock()

		model, verdict, metric, err := data.evaluate(build, x, seed, target, cfg.Metric)
		if err != nil {
			return 0, false, nil, err
		}
		if model == nil {
			return 0, false, map[string]float64{"train_error": 1}, nil
		}
		if verdict.Feasible {
			mu.Lock()
			if metric > bestMetric {
				bestMetric = metric
				bestModel = model
				bestVerdict = verdict
			}
			mu.Unlock()
		}
		return metric, verdict.Feasible, verdict.Metrics, nil
	}

	boRes, err := bo.Maximize(ctx, space, boCfg, objective)
	if err != nil {
		return res, fmt.Errorf("core: %s search: %w", kind, err)
	}
	res.BO = boRes
	if bestModel != nil {
		data.foldNormalizer(bestModel)
		res.Model = bestModel
		res.Metric = bestMetric
		res.Verdict = bestVerdict
	}
	return res, nil
}

// DesignSpace returns the BO design space the core would search for an
// algorithm family — the artifact §4 describes being "formed into a JSON
// configuration file describing searchable parameters" (serialize it with
// bo.Space.WriteJSON).
func DesignSpace(app App, cfg SearchConfig, kind ir.Kind) bo.Space {
	space, _ := familySpace(app, cfg, kind)
	return space
}

// builder turns a BO design point into a model IR trained on data.train.
type builder func(x []float64, data *prepared, seed int64) (*ir.Model, error)

// familySpace constructs the design space (§3.2.2) and trainer for one
// algorithm family.
func familySpace(app App, cfg SearchConfig, kind ir.Kind) (bo.Space, builder) {
	classes := app.Train.Classes()
	if classes < 2 {
		classes = 2
	}
	switch kind {
	case ir.DNN:
		params := []bo.Param{
			{Name: "layers", Kind: bo.Integer, Min: 1, Max: float64(cfg.MaxHiddenLayers)},
			{Name: "lr", Kind: bo.Ordinal, Values: []float64{0.001, 0.003, 0.01, 0.03}},
			{Name: "batch", Kind: bo.Ordinal, Values: []float64{16, 32, 64}},
			{Name: "activation", Kind: bo.Categorical, Values: []float64{0, 1, 2}},
			{Name: "dropout", Kind: bo.Ordinal, Values: []float64{0, 0.1, 0.2}},
		}
		for i := 0; i < cfg.MaxHiddenLayers; i++ {
			params = append(params, bo.Param{
				Name: fmt.Sprintf("width%d", i), Kind: bo.Integer, Min: 2, Max: float64(cfg.MaxNeurons),
			})
		}
		space := bo.Space{Params: params}
		return space, func(x []float64, data *prepared, seed int64) (*ir.Model, error) {
			train := data.train
			layers := int(x[0])
			hidden := make([]int, layers)
			for i := 0; i < layers; i++ {
				hidden[i] = int(x[5+i])
			}
			nc := nn.Config{
				Inputs:     train.Features(),
				Hidden:     hidden,
				Outputs:    classes,
				Activation: nn.Activation(int(x[3])),
				Optimizer:  nn.Adam,
				LearnRate:  x[1],
				BatchSize:  int(x[2]),
				Epochs:     cfg.TrainEpochs,
				Dropout:    x[4],
				Seed:       seed,
			}
			net, err := nn.New(nc)
			if err != nil {
				return nil, err
			}
			if _, err := net.Train(train); err != nil {
				return nil, err
			}
			return ir.FromNN(app.Name, net, cfg.Format), nil
		}
	case ir.SVM:
		space := bo.Space{Params: []bo.Param{
			{Name: "lr", Kind: bo.Ordinal, Values: []float64{0.01, 0.03, 0.1, 0.3}},
			{Name: "lambda", Kind: bo.Ordinal, Values: []float64{0.0001, 0.001, 0.01}},
			{Name: "epochs", Kind: bo.Integer, Min: 3, Max: float64(cfg.TrainEpochs)},
		}}
		return space, func(x []float64, data *prepared, seed int64) (*ir.Model, error) {
			sc := svm.Config{
				Features:  data.train.Features(),
				Classes:   classes,
				LearnRate: x[0],
				Lambda:    x[1],
				Epochs:    int(x[2]),
				Seed:      seed,
			}
			m, err := svm.Train(sc, data.train)
			if err != nil {
				return nil, err
			}
			return ir.FromSVM(app.Name, m, cfg.Format), nil
		}
	case ir.KMeans:
		maxK := cfg.MaxClusters
		space := bo.Space{Params: []bo.Param{
			{Name: "k", Kind: bo.Integer, Min: 1, Max: float64(maxK)},
			{Name: "iters", Kind: bo.Ordinal, Values: []float64{10, 25, 50}},
		}}
		return space, func(x []float64, data *prepared, seed int64) (*ir.Model, error) {
			kc := kmeans.Config{K: int(x[0]), MaxIters: int(x[1]), Seed: seed}
			m, err := kmeans.Train(kc, data.train)
			if err != nil {
				return nil, err
			}
			return ir.FromKMeans(app.Name, m, cfg.Format), nil
		}
	default: // ir.DTree
		space := bo.Space{Params: []bo.Param{
			{Name: "depth", Kind: bo.Integer, Min: 1, Max: 8},
			{Name: "minleaf", Kind: bo.Integer, Min: 1, Max: 16},
		}}
		return space, func(x []float64, data *prepared, seed int64) (*ir.Model, error) {
			dc := dtree.Config{MaxDepth: int(x[0]), MinLeaf: int(x[1]), Classes: classes}
			m, err := data.sorted().Grow(dc)
			if err != nil {
				return nil, err
			}
			return ir.FromDTree(app.Name, m, data.train.Features(), cfg.Format), nil
		}
	}
}

// scoreModel evaluates a model on the test set with bit-accurate quantized
// inference — the metric the deployed pipeline would achieve.
func scoreModel(m *ir.Model, test *dataset.Dataset, metric Metric) (float64, error) {
	pred, err := m.PredictQ(test)
	if err != nil {
		return 0, err
	}
	switch metric {
	case MetricVMeasure:
		return metrics.VMeasure(test.Y, pred), nil
	case MetricAccuracy:
		n := metrics.NumClasses(test.Y, pred)
		return metrics.FromLabels(test.Y, pred, n).Accuracy(), nil
	default: // F1
		n := metrics.NumClasses(test.Y, pred)
		conf := metrics.FromLabels(test.Y, pred, n)
		if n == 2 {
			return conf.F1(1), nil
		}
		return conf.MacroF1(), nil
	}
}

// RankFeatures orders feature indices by importance for IIsy feature
// pruning (§4: "Homunculus will try to remove less impactful features
// until the SVM model fits"). Importance is the class-separation F-score
// of each feature (between-class variance over within-class variance).
func RankFeatures(d *dataset.Dataset) []int {
	nf := d.Features()
	scores := make([]float64, nf)
	byClass := map[int][]int{}
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	for j := 0; j < nf; j++ {
		var grandSum float64
		for i := 0; i < d.Len(); i++ {
			grandSum += d.X.At(i, j)
		}
		grand := grandSum / float64(d.Len())
		var between, within float64
		for _, idx := range byClass {
			var sum float64
			for _, i := range idx {
				sum += d.X.At(i, j)
			}
			mean := sum / float64(len(idx))
			between += float64(len(idx)) * (mean - grand) * (mean - grand)
			for _, i := range idx {
				dv := d.X.At(i, j) - mean
				within += dv * dv
			}
		}
		if within < 1e-12 {
			within = 1e-12
		}
		scores[j] = between / within
	}
	order := make([]int, nf)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return scores[order[a]] > scores[order[b]] })
	return order
}
