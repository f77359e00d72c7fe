package main

// The compile modes: a local single-target compilation (run), the
// cross-platform sweep (-platform all), and the daemon client modes
// (-remote, -cluster).

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/httpapi"
	"repro/internal/ir"

	homunculus "repro"
)

// result is what a local run hands back beyond its printed report: the
// replay and tuning outcomes, when those legs ran.
type result struct {
	replay *replayReport
	tune   *tuneReport
}

// run compiles the spec locally — one target, or every registered backend
// under -platform all — writes the artifacts to the output directory, and
// runs the -validate, -tune and -deploy legs the config asks for.
func run(ctx context.Context, cfg config) (result, error) {
	var res result
	ctx, cancel := cfg.bound(ctx)
	defer cancel()
	spec, err := loadSpec(cfg.spec, cfg.platform)
	if err != nil {
		return res, err
	}
	loader, err := buildLoader(spec.Data, filepath.Dir(cfg.spec))
	if err != nil {
		return res, err
	}
	platform, search, err := spec.declare(loader)
	if err != nil {
		return res, err
	}

	if spec.Platform.Kind == "all" {
		if cfg.replay.deploy {
			return res, fmt.Errorf("-deploy/-replay apply to a single-target compilation, not -platform all")
		}
		if cfg.tune.enabled {
			return res, fmt.Errorf("-tune applies to a single-target compilation, not -platform all")
		}
		return res, runSweep(ctx, cfg, spec, platform, search)
	}

	pipe, err := homunculus.Generate(ctx, platform, cfg.options(search, cfg.progress)...)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return res, fmt.Errorf("compilation timed out after %v: %w", cfg.timeout, err)
		}
		return res, err
	}
	w := cfg.out
	app := pipe.Apps[0]
	if app.Model == nil {
		fmt.Fprintln(w, "no feasible model found under the given constraints; candidates:")
		for _, c := range app.Candidates {
			if c.Skipped != "" {
				fmt.Fprintf(w, "  %-8s skipped: %s\n", c.Algorithm, c.Skipped)
			} else {
				fmt.Fprintf(w, "  %-8s explored %d configurations, none feasible\n", c.Algorithm, len(c.BO.History))
			}
		}
		return res, fmt.Errorf("compilation produced no deployable pipeline")
	}

	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return res, fmt.Errorf("create output dir: %w", err)
	}
	codePath := filepath.Join(cfg.outDir, spec.Name+backend.CodeExt(pipe.Platform))
	if err := os.WriteFile(codePath, []byte(app.Code), 0o644); err != nil {
		return res, fmt.Errorf("write code: %w", err)
	}
	if err := writeSpace(cfg, spec, loader, search); err != nil {
		return res, err
	}
	modelPath := filepath.Join(cfg.outDir, spec.Name+".model.json")
	if err := writeFile(modelPath, app.Model.WriteJSON); err != nil {
		return res, fmt.Errorf("write model: %w", err)
	}

	appReport{
		name: spec.Name, platform: pipe.Platform,
		algorithm: app.Algorithm, metric: app.Metric, metricName: orDefault(spec.Metric, "f1"),
		params: app.Model.ParamCount(), feasible: app.Verdict.Feasible, verdict: app.Verdict.Metrics,
		rows: [][2]string{{"code", codePath}, {"model", modelPath}},
	}.print(w)
	if cfg.validate {
		if err := reportValidation(w, app.Validation, cfg.outDir, spec.Name); err != nil {
			return res, err
		}
	}
	if cfg.tune.enabled {
		if res.tune, err = runTune(ctx, cfg, spec, loader, pipe); err != nil {
			return res, err
		}
	}
	if cfg.replay.deploy {
		res.replay, err = runReplay(ctx, cfg, spec, loader, platform, pipe, search)
	}
	return res, err
}

// writeSpace writes the design space the optimizer searched for the
// spec's first algorithm — the HyperMapper-style JSON interface of §4 —
// to <out>/<name>.space.json. A spec that names no algorithm has none.
func writeSpace(cfg config, spec Spec, loader alchemy.DataLoader, search core.SearchConfig) error {
	if len(spec.Algorithms) == 0 {
		return nil
	}
	kind, err := ir.ParseKind(spec.Algorithms[0])
	if err != nil {
		return err
	}
	train, test, err := loaderDatasets(loader)
	if err != nil {
		return fmt.Errorf("design space: %w", err)
	}
	space := core.DesignSpace(core.App{Name: spec.Name, Train: train, Test: test}, search, kind)
	path := filepath.Join(cfg.outDir, spec.Name+".space.json")
	if err := writeFile(path, func(w io.Writer) error { return space.WriteJSON(w, spec.Name) }); err != nil {
		return fmt.Errorf("write design space: %w", err)
	}
	fmt.Fprintf(cfg.out, "space artifact: %s\n", path)
	return nil
}

// writeFile creates path and fills it with write, reporting a failed
// create, write or close alike.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// options renders a compilation's generation options: the search
// configuration, stage events on stderr when progress is set, and the
// validate stage under -validate. The local run, the sweep and the
// mid-replay rollout all compile with them.
func (c config) options(search core.SearchConfig, progress bool) []homunculus.Option {
	opts := []homunculus.Option{homunculus.WithSearchConfig(search)}
	if progress {
		opts = append(opts, homunculus.WithProgress(printEvent))
	}
	if c.validate {
		opts = append(opts, homunculus.WithValidation())
	}
	return opts
}

// printEvent renders one platform-tagged progress line on stderr.
func printEvent(ev homunculus.Event) {
	mark := "start"
	if ev.Done {
		mark = "done"
	}
	line := fmt.Sprintf("[%s] %-8s %s", ev.Platform, ev.Stage, ev.App)
	if ev.Candidate != "" {
		line += "/" + ev.Candidate
	}
	fmt.Fprintf(os.Stderr, "%s %s\n", line, mark)
}

// appReport is the block a single-target compilation prints for its app,
// whether it compiled here or on a daemon.
type appReport struct {
	name, platform string
	where          string // "" here, "remotely " on a daemon
	algorithm      string
	metric         float64
	metricName     string
	params         int // 0 when unknown: a daemon does not return the model
	feasible       bool
	verdict        map[string]float64
	rows           [][2]string // trailing labelled lines: artifact paths, cache hit
}

func (r appReport) print(w io.Writer) {
	fmt.Fprintf(w, "pipeline %q compiled %sfor %s\n", r.name, r.where, r.platform)
	fmt.Fprintf(w, "  algorithm:  %s\n", r.algorithm)
	fmt.Fprintf(w, "  metric:     %.4f (%s, quantized)\n", r.metric, r.metricName)
	if r.params > 0 {
		fmt.Fprintf(w, "  params:     %d\n", r.params)
	}
	verdict := fmt.Sprintf("feasible=%v", r.feasible)
	if detail := verdictDetail(r.verdict); detail != "" {
		verdict += " " + detail
	}
	fmt.Fprintf(w, "  verdict:    %s\n", verdict)
	for _, row := range r.rows {
		fmt.Fprintf(w, "  %-12s%s\n", row[0]+":", row[1])
	}
}

// verdictDetail renders the interesting verdict metrics compactly.
func verdictDetail(metrics map[string]float64) string {
	var parts []string
	for _, k := range []string{"cus", "mus", "tables", "latency_ns", "throughput_gpkts", "lut_pct", "power_w"} {
		if val, ok := metrics[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.2f", k, val))
		}
	}
	return strings.Join(parts, " ")
}

// runSweep compiles the spec against every registered backend and prints
// the per-target feasibility table, writing code artifacts for each
// deployable target. Per-target compilations interleave on the service,
// so sweep progress is always printed platform-tagged: Event.Platform is
// what lets one observer tell the concurrent streams apart.
func runSweep(ctx context.Context, cfg config, spec Spec, base *alchemy.Platform, search core.SearchConfig) error {
	reports, err := homunculus.GenerateAcross(ctx, base, nil, cfg.options(search, true)...)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	w := cfg.out
	fmt.Fprintf(w, "cross-platform sweep of %q over %d backends\n", spec.Name, len(reports))
	fmt.Fprintf(w, "%-10s %-9s %-8s %-9s %s\n", "platform", "algo", "metric", "feasible", "detail")
	deployable := 0
	var diverged []string
	for _, r := range reports {
		if r.Err != nil {
			fmt.Fprintf(w, "%-10s %-9s %-8s %-9s %v\n", r.Platform, "-", "-", "error", r.Err)
			continue
		}
		app := r.Pipeline.Apps[0]
		if app.Model == nil {
			fmt.Fprintf(w, "%-10s %-9s %-8s %-9v %s\n", r.Platform, "-", "-", false, sweepDetail(app))
			continue
		}
		deployable++
		detail := verdictDetail(app.Verdict.Metrics)
		if cfg.validate {
			detail += " | " + app.Validation.String()
			if !app.Validation.OK() {
				diverged = append(diverged, r.Platform)
			}
		}
		fmt.Fprintf(w, "%-10s %-9s %-8.4f %-9v %s\n",
			r.Platform, app.Algorithm, app.Metric, app.Verdict.Feasible, detail)
		codePath := filepath.Join(cfg.outDir, spec.Name+"."+r.Platform+backend.CodeExt(r.Platform))
		if err := os.WriteFile(codePath, []byte(app.Code), 0o644); err != nil {
			return fmt.Errorf("write code for %s: %w", r.Platform, err)
		}
	}
	if deployable == 0 {
		return fmt.Errorf("no registered backend produced a deployable pipeline")
	}
	fmt.Fprintf(w, "%d/%d backends deployable; artifacts in %s\n", deployable, len(reports), cfg.outDir)
	if len(diverged) > 0 {
		return fmt.Errorf("translation validation failed on %s", strings.Join(diverged, ", "))
	}
	return nil
}

// sweepDetail explains an undeployable app row.
func sweepDetail(app homunculus.AppResult) string {
	for _, c := range app.Candidates {
		if c.Skipped != "" {
			return fmt.Sprintf("%s skipped: %s", c.Algorithm, c.Skipped)
		}
	}
	return "no feasible model under the given constraints"
}

// runRemote ships the spec to a running daemon over the retrying HTTP
// client (capped backoff + jitter, Retry-After honored — the submission
// rides through admission sheds and daemon restarts), polls the job to
// a terminal state, and writes the generated code artifact locally.
// Remote submission carries the spec's dataset as a catalog name the
// daemon resolves ("nslkdd", "iottc", "botnet"); CSV files and per-spec
// samples/seed overrides only exist on this machine and are rejected.
func runRemote(ctx context.Context, cfg config) error {
	ctx, cancel := cfg.bound(ctx)
	defer cancel()
	spec, err := loadSpec(cfg.spec, cfg.platform)
	if err != nil {
		return err
	}
	switch {
	case spec.Platform.Kind == "all":
		return fmt.Errorf("-remote submits a single-target compilation, not -platform all")
	case spec.Data.TrainCSV != "" || spec.Data.TestCSV != "":
		return fmt.Errorf("-remote cannot ship CSV files; use a catalog dataset (nslkdd, iottc, botnet)")
	case spec.Data.Generator == "":
		return fmt.Errorf("-remote needs data.generator (a dataset name the daemon resolves)")
	case spec.Data.Samples != 0 || spec.Data.Seed != 0:
		return fmt.Errorf("-remote submits dataset %q at the daemon's registered configuration; drop data.samples/data.seed", spec.Data.Generator)
	}

	// Build the same declaration a local run would, then ship its wire
	// form — the daemon re-resolves the dataset name through its own
	// catalog.
	platform, _, err := spec.declare(alchemy.NamedLoader(spec.Data.Generator))
	if err != nil {
		return err
	}
	doc, err := alchemy.PlatformToJSON(platform)
	if err != nil {
		return err
	}
	req := httpapi.SubmitRequest{Platform: doc, Search: &spec.Search, Validate: cfg.validate}

	w := cfg.out
	client := httpapi.NewClient(cfg.remote)
	job, err := client.SubmitJob(ctx, req)
	if err != nil {
		return fmt.Errorf("submit to %s: %w", cfg.remote, err)
	}
	fmt.Fprintf(w, "submitted %s to %s (state %s)\n", job.ID, cfg.remote, job.State)
	final, err := client.WaitJob(ctx, job.ID, 500*time.Millisecond)
	if err != nil {
		return fmt.Errorf("wait for %s: %w", job.ID, err)
	}
	if final.State != homunculus.JobDone {
		return fmt.Errorf("job %s ended %s: %s", job.ID, final.State, final.Error)
	}
	full, err := client.Job(ctx, job.ID, true)
	if err != nil {
		return err
	}
	if full.Result == nil || len(full.Result.Apps) == 0 {
		return fmt.Errorf("job %s finished without a result", job.ID)
	}
	app := full.Result.Apps[0]
	if app.Code == "" {
		return fmt.Errorf("remote compilation produced no deployable pipeline (algorithm %q, feasible=%v)", app.Algorithm, app.Feasible)
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	codePath := filepath.Join(cfg.outDir, spec.Name+backend.CodeExt(full.Result.Platform))
	if err := os.WriteFile(codePath, []byte(app.Code), 0o644); err != nil {
		return fmt.Errorf("write code: %w", err)
	}
	appReport{
		name: spec.Name, platform: full.Result.Platform, where: "remotely ",
		algorithm: app.Algorithm, metric: app.Metric, metricName: orDefault(spec.Metric, "f1"),
		feasible: app.Feasible, verdict: app.Verdict,
		rows: [][2]string{{"code", codePath}, {"cache hit", fmt.Sprint(full.CacheHit)}},
	}.print(w)
	if !cfg.validate {
		return nil
	}
	v := app.Validation
	if v == nil {
		return fmt.Errorf("daemon returned no validation verdict")
	}
	return reportValidation(w, &homunculus.ValidationReport{
		Evaluators: v.Evaluators, Inputs: v.Inputs, Divergences: v.Divergences, Repro: v.Repro, Err: v.Error,
	}, cfg.outDir, spec.Name)
}

// runClusterStatus renders a cluster-mode daemon's view of the fabric:
// `homunculus -cluster http://node-a:8077`.
func runClusterStatus(ctx context.Context, cfg config) error {
	ctx, cancel := cfg.bound(ctx)
	defer cancel()
	st, err := httpapi.NewClient(cfg.cluster).ClusterStatus(ctx)
	if err != nil {
		return fmt.Errorf("cluster status from %s: %w", cfg.cluster, err)
	}
	w := cfg.out
	fmt.Fprintf(w, "node %s at %s\n", st.Self.ID, st.Self.Addr)
	fmt.Fprintf(w, "  load: %d queued, %d running (max in-flight %d, queue depth %d)\n",
		st.Self.Queued, st.Self.Running, st.Self.MaxInFlight, st.Self.QueueDepth)
	if len(st.Peers) == 0 {
		fmt.Fprintln(w, "peers: none known")
	} else {
		fmt.Fprintf(w, "peers (%d):\n", len(st.Peers))
		for _, p := range st.Peers {
			extra := ""
			if p.Quarantined {
				extra = " QUARANTINED"
			}
			fmt.Fprintf(w, "  %-10s %s  %s  queued=%d running=%d last_seen=%dms%s\n",
				p.State, orDefault(p.ID, "?"), p.Addr, p.Queued, p.Running, p.LastSeenMS, extra)
		}
	}
	fmt.Fprintf(w, "cache: %d remote hits, %d misses, %d poisoned, %d served (fetch p50 %s, p99 %s)\n",
		st.Cache.RemoteHits, st.Cache.RemoteMisses, st.Cache.Poisoned, st.Cache.Served,
		time.Duration(st.Cache.FetchP50NS), time.Duration(st.Cache.FetchP99NS))
	fmt.Fprintf(w, "steal: %d delegated (%d ran local), %d granted, %d completed remotely, %d reclaimed; as thief: %d attempts, %d executed\n",
		st.Steal.Delegated, st.Steal.DelegatedLocal, st.Steal.StolenGranted,
		st.Steal.StolenCompleted, st.Steal.Reclaimed,
		st.Steal.StealsAttempted, st.Steal.StealsExecuted)
	return nil
}
