// Package homunculus is the public entry point of the Homunculus
// framework (Swamy et al., ASPLOS 2023 — "Homunculus: Auto-Generating
// Efficient Data-Plane ML Pipelines for Datacenter Networks"): declare
// datasets, objectives, and a target with the alchemy DSL, then call
// Generate to run design-space exploration, training, feasibility testing,
// and backend code generation in one step.
//
//	platform := alchemy.Taurus()
//	platform.Constrain(alchemy.Constraints{ ... })
//	platform.Schedule(model)
//	pipeline, err := homunculus.Generate(ctx, platform)
//
// Compilation runs as an explicit staged pipeline — load → search →
// compose → codegen (docs/architecture.md) — with per-app fan-out on the
// shared worker pool, cooperative cancellation through ctx, and optional
// progress reporting via WithProgress. Backends resolve through the
// internal/backend registry, so GenerateAcross can compile one
// declaration against every registered platform and report the verdict
// per target.
//
// The returned Pipeline carries, per scheduled model, the selected
// algorithm and architecture, the achieved objective metric (measured with
// bit-accurate fixed-point inference), the backend resource verdict, and
// the generated Spatial or P4 source.
package homunculus

import (
	"context"
	"fmt"
	"sync"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/parallel"
)

// Stage names one phase of the compilation pipeline, in execution order:
// load (datasets materialize), search (per-app design-space exploration),
// compose (whole-pipeline feasibility), codegen (backend source),
// validate (optional translation validation of the emitted artifacts).
type Stage string

// Pipeline stages.
const (
	StageLoad     Stage = "load"
	StageSearch   Stage = "search"
	StageCompose  Stage = "compose"
	StageCodegen  Stage = "codegen"
	StageValidate Stage = "validate"
)

// Event is one progress notification. Every unit of work emits a start
// event (Done false) and a completion event (Done true); candidate-level
// search events additionally carry the algorithm family.
type Event struct {
	Stage Stage
	// Platform is the backend kind being compiled for ("taurus",
	// "tofino", ...). It disambiguates events when one observer watches
	// concurrent per-target compilations — a GenerateAcross sweep or a
	// multi-tenant Service.
	Platform string
	// App is the application (model) name; empty for pipeline-level
	// events (the compose stage).
	App string
	// Candidate is the algorithm family of a per-candidate search event;
	// empty for app-level events.
	Candidate string
	// Done marks completion of the (stage, app, candidate) unit.
	Done bool
}

// ProgressFunc observes pipeline progress. Calls are serialized within
// one compilation (no internal locking needed for per-job observers) but
// may come from worker goroutines — and an observer shared across
// concurrent compilations (a GenerateAcross sweep) sees interleaved
// streams, distinguishable by Event.Platform, and must synchronize its
// own state. Keep it fast or hand off to a channel. Observability only —
// it cannot change compilation results.
type ProgressFunc func(Event)

// Option customizes Generate.
type Option func(*options)

type options struct {
	search   core.SearchConfig
	progress ProgressFunc
	// validate runs translation validation after codegen and attaches
	// the verdict to each AppResult. It is part of the spec hash: a
	// validated pipeline is a different artifact than an unvalidated one.
	validate bool
	// preloaded carries per-model data already materialized by the
	// service's spec-hashing pass, so a cache miss does not load twice.
	preloaded map[*alchemy.Model]*alchemy.Data
}

// WithSearchConfig replaces the default search configuration (BO budget,
// design-space bounds, seed) — the knob the experiment harness uses.
func WithSearchConfig(cfg core.SearchConfig) Option {
	return func(o *options) {
		o.search = cfg
	}
}

// WithSeed sets the global search seed, keeping other defaults.
func WithSeed(seed int64) Option {
	return func(o *options) { o.search.Seed = seed }
}

// WithProgress installs a progress observer on the pipeline.
func WithProgress(fn ProgressFunc) Option {
	return func(o *options) { o.progress = fn }
}

// WithValidation enables the validate stage: after codegen, each
// compiled model's emitted artifacts are executed by the
// internal/validate interpreters against bit-accurate IR inference on
// fixed-seed traffic, and the verdict lands on AppResult.Validation
// (docs/validation.md). Divergence does not fail compilation; it is
// surfaced for the CLI, the jobs API, and the endpoint rollout gate to
// act on.
func WithValidation() Option {
	return func(o *options) { o.validate = true }
}

// AppResult is the outcome for one scheduled model.
type AppResult struct {
	Name string
	// Algorithm is the selected family ("dnn", "svm", ...).
	Algorithm string
	// Metric is the achieved objective (F1 / accuracy / V-measure) under
	// quantized inference.
	Metric float64
	// Model is the deployable IR.
	Model *ir.Model
	// Verdict is the backend resource/performance report.
	Verdict core.Verdict
	// Code is the generated backend source (Spatial or P4).
	Code string
	// Validation is the translation-validation verdict; nil unless the
	// job was submitted with WithValidation.
	Validation *ValidationReport
	// Candidates summarizes every algorithm family tried.
	Candidates []core.CandidateResult
}

// Pipeline is the compiled data-plane ML pipeline.
type Pipeline struct {
	Platform string
	Apps     []AppResult
	// Composition is the whole-pipeline resource verdict when more than
	// one model is scheduled on a composition-capable target.
	Composition *core.Verdict
}

// Generate compiles the platform's scheduled models through the staged
// pipeline: load materializes each unique model's datasets; search runs
// the optimization core per app, fanned out on the shared worker pool
// (§3.2.1's parallel runs, lifted to whole applications); compose checks
// whole-pipeline resources for multi-model schedules (§3.2.1 consistency
// rules); codegen emits the backend source for every deployable model.
//
// Cancellation is cooperative: when ctx is done, running searches abort
// at their next evaluation and Generate returns an error wrapping
// ctx.Err(). With an undone ctx, fixed-seed output is byte-identical at
// any GOMAXPROCS.
//
// Generate is a thin wrapper over the process-wide DefaultService: it
// submits the declaration as a job and blocks on its completion. For
// asynchronous handles, bounded admission, and content-addressed result
// caching, construct a Service and call Submit directly (docs/api.md).
func Generate(ctx context.Context, p *alchemy.Platform, opts ...Option) (*Pipeline, error) {
	job, err := DefaultService().Submit(ctx, p, opts...)
	if err != nil {
		return nil, err
	}
	return job.Wait(ctx)
}

// appJob is one unique scheduled model flowing through the stages.
type appJob struct {
	model *alchemy.Model
	app   core.App
	cfg   core.SearchConfig
	res   *core.SearchResult
	out   AppResult
}

func compile(ctx context.Context, p *alchemy.Platform, target core.Target, o *options) (*Pipeline, error) {
	// Progress calls are serialized across the concurrently searching
	// apps so the observer needs no locking of its own. Every event is
	// stamped with the platform kind so observers of concurrent
	// compilations (sweeps, the Service) can tell the streams apart.
	var progressMu sync.Mutex
	kind := p.Kind.String()
	emit := func(ev Event) {
		if o.progress == nil {
			return
		}
		ev.Platform = kind
		progressMu.Lock()
		defer progressMu.Unlock()
		o.progress(ev)
	}

	// Stage 1: load. Each *alchemy.Model is loaded and searched once even
	// if scheduled several times (e.g. the Table-3 chaining experiment);
	// loads run serially because DataLoaders are arbitrary user code.
	models := p.Sched.Models()
	index := map[*alchemy.Model]int{}
	var jobs []*appJob
	for _, m := range models {
		if _, seen := index[m]; seen {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("homunculus: compilation cancelled: %w", err)
		}
		emit(Event{Stage: StageLoad, App: m.Spec.Name})
		job, err := loadApp(m, target, o.search, o.preloaded[m])
		if err != nil {
			return nil, err
		}
		emit(Event{Stage: StageLoad, App: m.Spec.Name, Done: true})
		index[m] = len(jobs)
		jobs = append(jobs, job)
	}

	// Stage 2: search. Apps fan out as tasks on the shared pool — the
	// same pool their family searches and kernels draw helpers from, so
	// multi-app schedules parallelize without oversubscribing. Each task
	// writes only its own job, keeping fixed-seed results independent of
	// scheduling.
	errs := make([]error, len(jobs))
	tasks := make([]func(), 0, len(jobs))
	for i, job := range jobs {
		i, job := i, job
		tasks = append(tasks, func() {
			emit(Event{Stage: StageSearch, App: job.app.Name})
			cfg := job.cfg
			cfg.OnCandidate = func(ev core.CandidateEvent) {
				emit(Event{Stage: StageSearch, App: ev.App, Candidate: ev.Algorithm.String(), Done: ev.Done})
			}
			res, err := core.Search(ctx, job.app, target, cfg)
			if err != nil {
				errs[i] = err
				return
			}
			job.res = res
			emit(Event{Stage: StageSearch, App: job.app.Name, Done: true})
		})
	}
	runErr := parallel.RunCtx(ctx, tasks...)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if runErr != nil {
		return nil, fmt.Errorf("homunculus: compilation cancelled: %w", runErr)
	}
	for _, job := range jobs {
		job.out = AppResult{Name: job.app.Name, Candidates: job.res.Candidates}
		if best := job.res.Best; best != nil {
			// A nil Best is not an error: the app surfaces with an empty
			// model so multi-app schedules can report partial success.
			job.out.Algorithm = best.Algorithm.String()
			job.out.Metric = best.Metric
			job.out.Model = best.Model
			job.out.Verdict = best.Verdict
		}
	}

	// Stage 3: compose. Whole-pipeline feasibility for multi-model
	// schedules on composition-capable targets (Taurus), read off the
	// declared schedule with each leaf's own compiled model.
	pipe := &Pipeline{Platform: p.Kind.String()}
	for _, m := range models {
		pipe.Apps = append(pipe.Apps, jobs[index[m]].out)
	}
	comp, err := composeSchedule(target, p.Sched, func(m *alchemy.Model) *ir.Model { return jobs[index[m]].out.Model }, emit)
	if err != nil {
		return nil, err
	}
	pipe.Composition = comp

	// Stage 4: codegen. Emit backend source once per unique model, then
	// share it across that model's schedule instances.
	for _, job := range jobs {
		if job.out.Model == nil {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("homunculus: compilation cancelled: %w", err)
		}
		emit(Event{Stage: StageCodegen, App: job.out.Name})
		code, err := target.Generate(job.out.Model)
		if err != nil {
			return nil, err
		}
		job.out.Code = code
		emit(Event{Stage: StageCodegen, App: job.out.Name, Done: true})
	}
	for i, m := range models {
		pipe.Apps[i].Code = jobs[index[m]].out.Code
	}

	// Stage 5 (opt-in): validate. Translation-validate each unique
	// model's emitted artifacts against the IR reference and attach the
	// verdict. Runs after codegen so a verdict always describes the same
	// artifacts the pipeline carries.
	if o.validate {
		for _, job := range jobs {
			if job.out.Model == nil {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("homunculus: compilation cancelled: %w", err)
			}
			emit(Event{Stage: StageValidate, App: job.out.Name})
			job.out.Validation = validateModel(job.out.Model)
			emit(Event{Stage: StageValidate, App: job.out.Name, Done: true})
		}
		for i, m := range models {
			pipe.Apps[i].Validation = jobs[index[m]].out.Validation
		}
	}
	return pipe, nil
}

// loadApp materializes one model's datasets and search configuration.
// A non-nil data skips the loader call (the service passes data it
// already materialized while fingerprinting the spec).
func loadApp(m *alchemy.Model, target core.Target, search core.SearchConfig, data *alchemy.Data) (*appJob, error) {
	if data == nil {
		var err error
		data, err = m.Spec.DataLoader.Load()
		if err != nil {
			return nil, fmt.Errorf("homunculus: load data for %q: %w", m.Spec.Name, err)
		}
	}
	train, test, err := data.Datasets()
	if err != nil {
		return nil, fmt.Errorf("homunculus: model %q: %w", m.Spec.Name, err)
	}
	job := &appJob{
		model: m,
		app: core.App{
			Name:      m.Spec.Name,
			Train:     train,
			Test:      test,
			Normalize: m.Spec.Normalize == nil || *m.Spec.Normalize,
		},
	}
	cfg := search
	cfg.Metric = core.Metric(m.Spec.OptimizationMetric)
	cfg.Algorithms = nil
	for _, a := range m.Spec.Algorithms {
		kind, err := ir.ParseKind(a)
		if err != nil {
			return nil, fmt.Errorf("homunculus: model %q: %w", m.Spec.Name, err)
		}
		cfg.Algorithms = append(cfg.Algorithms, kind)
	}
	job.cfg = cfg
	return job, nil
}

// TargetReport is one backend's outcome in a cross-platform sweep.
type TargetReport struct {
	// Platform is the registry kind ("taurus", "tofino", "fpga", ...).
	Platform string
	// Pipeline is the compiled result; nil when compilation failed
	// outright (Err set).
	Pipeline *Pipeline
	// Err records a hard per-target failure (bad constraints for that
	// backend, load errors). "No feasible model" is NOT an error — it
	// shows as a Pipeline whose apps carry no model.
	Err error
}

// GenerateAcross compiles one declaration against several backends — by
// default every registered one — and reports per-target outcomes: the
// scenario-diversity sweep the backend registry enables. The platform's
// declared kind is ignored; its constraints and schedule apply to every
// target (zero-valued constraint fields take each backend's defaults).
//
// Per-target compilations are submitted concurrently through the
// DefaultService — its admission bound (GOMAXPROCS in flight) paces the
// sweep — and each runs the full staged pipeline, so per-target results
// match a direct Generate call with that kind (every Event carries its
// Platform so one observer can tell the interleaved streams apart).
// Reports come back in the order of kinds. Hard failures on one target
// do not stop the sweep; cancellation does.
func GenerateAcross(ctx context.Context, p *alchemy.Platform, kinds []string, opts ...Option) ([]TargetReport, error) {
	if len(kinds) == 0 {
		kinds = backend.Names()
	}
	svc := DefaultService()
	jobs := make([]*Job, len(kinds))
	submitErrs := make([]error, len(kinds))
	for i, kind := range kinds {
		if err := ctx.Err(); err != nil {
			cancelJobs(jobs)
			return nil, fmt.Errorf("homunculus: sweep cancelled: %w", err)
		}
		clone := *p
		clone.Kind = alchemy.PlatformKind(kind)
		jobs[i], submitErrs[i] = svc.Submit(ctx, &clone, opts...)
	}
	reports := make([]TargetReport, 0, len(kinds))
	for i, kind := range kinds {
		if submitErrs[i] != nil {
			reports = append(reports, TargetReport{Platform: kind, Err: submitErrs[i]})
			continue
		}
		pipe, err := jobs[i].Wait(ctx)
		if err != nil {
			if ctx.Err() != nil {
				cancelJobs(jobs[i:])
				return reports, err
			}
			reports = append(reports, TargetReport{Platform: kind, Err: err})
			continue
		}
		reports = append(reports, TargetReport{Platform: kind, Pipeline: pipe})
	}
	return reports, nil
}

// cancelJobs cancels the still-pending tail of an abandoned sweep.
func cancelJobs(jobs []*Job) {
	for _, j := range jobs {
		if j != nil {
			j.Cancel()
		}
	}
}

// composeSchedule is the compose stage: the whole-pipeline verdict for
// the schedule's compiled models, in schedule order and with the longest
// > chain through them, on a composition-capable target. It is nil when
// the target cannot compose or fewer than two leaves compiled, since a
// lone model's own verdict already covers it.
func composeSchedule(target backend.Target, sched *alchemy.Schedule, compiled func(*alchemy.Model) *ir.Model, emit func(Event)) (*backend.Verdict, error) {
	composer, ok := target.(backend.Composer)
	if !ok {
		return nil, nil
	}
	models, depth := sched.Compose(compiled)
	if len(models) < 2 {
		return nil, nil
	}
	emit(Event{Stage: StageCompose})
	v, err := composer.EstimateComposition(models, depth)
	if err != nil {
		return nil, err
	}
	emit(Event{Stage: StageCompose, Done: true})
	return &v, nil
}
