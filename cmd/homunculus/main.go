// Command homunculus compiles a declarative pipeline specification — the
// JSON equivalent of an Alchemy program — into data-plane code: it runs
// design-space exploration, training, and feasibility testing, then writes
// the generated Spatial/P4 source and the serialized model next to a
// printed report.
//
//	homunculus -spec pipeline.json -out build/
//	homunculus -spec pipeline.json -platform all   # sweep every backend
//	homunculus -spec pipeline.json -timeout 30s    # bound the search
//	homunculus -spec pipeline.json -progress       # stage events on stderr
//	homunculus -spec pipeline.json -validate       # translation-validate artifacts
//	homunculus -validate -model build/x.model.json -code build/x.spatial
//	homunculus -repro build/x.repro.json           # replay a divergence repro
//	homunculus -spec pipeline.json -deploy         # serve + replay a trace
//	homunculus -spec pipeline.json -replay 5000    # replay 5000 samples
//	homunculus -spec pipeline.json -tune -slo "p99<=2ms,drops=0"
//	                                               # autotune the serving config
//	homunculus -serve :8077                        # run as a daemon
//	homunculus -spec pipeline.json -remote http://127.0.0.1:8077
//	                                               # compile on a daemon
//
//	# serve behind a named endpoint and drive a live canary rollout
//	# (recompiled with seed+1) halfway through the replay, promoting at
//	# the three-quarter mark:
//	homunculus -spec pipeline.json -replay 5000 -endpoint ad \
//	           -rollout -canary 25 -promote
//
// -platform overrides the spec's platform.kind; the special value "all"
// compiles the spec against every registered backend and prints the
// per-target feasibility table (sweep progress is always platform-tagged
// on stderr, since per-target compilations interleave). -timeout cancels
// compilation through the pipeline's context plumbing. -serve skips spec
// compilation entirely and exposes the compilation service over HTTP —
// the same daemon as cmd/homunculusd (see docs/api.md). -remote is the
// client side of that daemon: the spec is submitted over the retrying
// HTTP client (backoff + jitter, Retry-After honored), polled to
// completion, and the generated code lands in -out as usual; the
// dataset must be a catalog name the daemon can resolve.
//
// -deploy serves the freshly compiled pipeline behind an in-process
// endpoint named "replay" (micro-batched, sharded quantized inference —
// see docs/serving.md) and drives it with a replayed synthetic trace,
// printing the achieved rate, latency quantiles, accuracy against the
// trace's ground-truth labels, and a sha256 digest of the delivered
// classifications (fixed-seed replays are byte-comparable across
// serving paths). For the botnet generator the trace is the per-packet
// partial-flowmarker stream (internal/stream.Trace); for the other
// generators and CSV data it is the test split. -replay N sets the
// replayed sample count (cycling the trace as needed) and implies
// -deploy; -clients, -batch, -batch-delay, -shards, and -queue tune the
// replay concurrency and the runtime's batching and ring-depth knobs.
//
// -burst replaces the closed-loop replayer (issue as fast as the runtime
// admits) with an open-loop pacer: offered load arrives at a mean rate
// calibrated from a sequential warmup (half the measured service rate)
// with periodic spikes at 100× that mean, so the run exercises and
// reports the ring scheduler's shed-at-the-door backpressure. Sheds
// appear when clients run in true parallel (multi-core) against a small
// -queue — on one core the caller-harvesting fast path drains each
// spike inline before producers pile up. Burst digests are
// timing-dependent and not byte-comparable.
//
// -endpoint NAME names the endpoint and unlocks the lifecycle flags:
// -rollout recompiles the spec mid-replay (search seed+1) and rolls the
// result out as revision 2 — a -canary N percent traffic slice
// (deterministic splitmix split; 0 deploys it warm without traffic) or a
// -shadow mirror (scored off the record, divergence report printed) —
// and -promote / -rollback complete or revert the rollout at the
// three-quarter mark. The final report breaks stats down per revision.
//
// -replay and -serve trap SIGINT/SIGTERM and drain gracefully: the
// replayer stops issuing, every accepted request is still classified and
// delivered, and the final stats are printed before exit.
//
// Spec format (see cmd/homunculus/testdata/ad.json for a full example):
//
//	{
//	  "name": "anomaly_detection",
//	  "metric": "f1",
//	  "algorithms": ["dnn"],
//	  "data": {"generator": "nslkdd", "samples": 6000, "seed": 1},
//	  "platform": {"kind": "taurus", "throughput_gpkts": 1,
//	               "latency_ns": 500, "rows": 16, "cols": 16},
//	  "search": {"init": 5, "iterations": 15, "epochs": 14,
//	             "max_layers": 4, "max_neurons": 24, "seed": 1}
//	}
//
// The "platform" and "search" sections are the documents POST /v1/jobs
// and the journal speak (kind + alchemy.ConstraintsJSON, httpapi.SearchJSON);
// loadSpec and Spec.declare are the one way from the file to a declaration,
// and an unknown kind, metric or algorithm is refused before any data
// loads. Data can come from the bundled generators ("nslkdd", "iottc",
// "botnet") or from CSV files ("train_csv"/"test_csv").
package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/ir"
	"repro/internal/loaders"
	"repro/internal/packet"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth/botnet"

	homunculus "repro"
)

// Spec is the on-disk pipeline specification. Its platform and search
// sections are the shared wire types, so the file format, POST /v1/jobs
// and the journal agree on every knob's spelling.
type Spec struct {
	Name       string             `json:"name"`
	Metric     string             `json:"metric"`
	Algorithms []string           `json:"algorithms"`
	Data       DataSpec           `json:"data"`
	Platform   PlatformSpec       `json:"platform"`
	Search     httpapi.SearchJSON `json:"search"`
}

// DataSpec selects a bundled generator or CSV pair.
type DataSpec struct {
	Generator string `json:"generator,omitempty"`
	Samples   int    `json:"samples,omitempty"`
	Seed      int64  `json:"seed,omitempty"`
	TrainCSV  string `json:"train_csv,omitempty"`
	TestCSV   string `json:"test_csv,omitempty"`
}

// PlatformSpec is the spec's platform section: the kind beside the flat
// constraints.
type PlatformSpec struct {
	Kind string `json:"kind"`
	alchemy.ConstraintsJSON
}

// loadSpec reads, parses and checks the spec file; a non-empty override
// replaces its platform.kind.
func loadSpec(path, platformOverride string) (Spec, error) {
	var spec Spec
	raw, err := os.ReadFile(path)
	if err != nil {
		return spec, fmt.Errorf("read spec: %w", err)
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		return spec, fmt.Errorf("parse spec: %w", err)
	}
	if spec.Name == "" {
		return spec, fmt.Errorf("spec needs a name")
	}
	if platformOverride != "" {
		spec.Platform.Kind = platformOverride
	}
	return spec, nil
}

// declare renders the spec as what a compilation takes: its model
// scheduled on its platform, and the search configuration. The kind
// resolves through the backend registry (an unknown kind's error lists
// every registered backend). A sweep ("all") declares a kind-less base
// that starts with ZERO constraints, so only the spec's explicit fields
// carry across backends — every unset field takes each backend's own
// registered defaults, exactly as a direct single-target run would.
func (spec Spec) declare(loader alchemy.DataLoader) (*alchemy.Platform, core.SearchConfig, error) {
	platform := &alchemy.Platform{}
	if spec.Platform.Kind != "all" {
		var err error
		if platform, err = alchemy.PlatformFor(orDefault(spec.Platform.Kind, "taurus")); err != nil {
			return nil, core.SearchConfig{}, err
		}
	}
	platform.Constrain(spec.Platform.Constraints())
	platform.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name:               spec.Name,
		OptimizationMetric: orDefault(spec.Metric, "f1"),
		Algorithms:         spec.Algorithms,
		DataLoader:         loader,
	}))
	return platform, spec.Search.Config(), nil
}

// showProgress mirrors the -progress flag: print single-target stage
// events to stderr (sweeps always print, platform-tagged).
var showProgress bool

// replaySettings mirrors the -deploy/-replay/-endpoint flag group: when
// enabled, the compiled pipeline is served in-process behind an endpoint
// and driven with a replayed synthetic trace.
type replaySettings struct {
	deploy  bool
	samples int
	clients int
	batch   int
	delay   time.Duration
	shards  int
	queue   int

	// adaptive enables the per-shard arrival-rate predictor on the
	// replay deployment (ServingConfig.AdaptiveFlush): quiet traffic
	// flushes greedily, predicted bursts hold for full batches.
	adaptive bool

	// burst switches the replayer from the closed loop (issue as fast as
	// the deployment admits) to the open-loop burst pacer: offered load
	// arrives at a calibrated mean rate with periodic 100× spikes, so the
	// run reports how the ring scheduler sheds under volumetric bursts.
	burst bool

	// Endpoint lifecycle: serve behind a named endpoint; optionally roll
	// out a recompiled revision mid-replay as a canary or shadow, then
	// promote or roll back before the final replay leg.
	endpoint string
	rollout  bool
	canary   int
	shadow   bool
	promote  bool
	rollback bool
}

// validate rejects contradictory lifecycle flag combinations.
func (r replaySettings) validate() error {
	if r.adaptive && r.delay < 0 {
		return fmt.Errorf("-adaptive needs a positive -batch-delay bound; a negative delay is greedy flush with nothing to adapt")
	}
	if r.endpoint == "" {
		if r.rollout || r.shadow || r.promote || r.rollback || r.canary != 0 {
			return fmt.Errorf("-rollout/-canary/-shadow/-promote/-rollback require -endpoint")
		}
		return nil
	}
	if r.canary < 0 || r.canary > 100 {
		return fmt.Errorf("-canary %d out of [0,100]", r.canary)
	}
	if r.shadow && r.canary != 0 {
		return fmt.Errorf("-shadow and -canary are mutually exclusive")
	}
	if r.promote && r.rollback {
		return fmt.Errorf("-promote and -rollback are mutually exclusive")
	}
	if (r.promote || r.rollback || r.shadow || r.canary != 0) && !r.rollout {
		return fmt.Errorf("-canary/-shadow/-promote/-rollback shape the mid-replay rollout; add -rollout")
	}
	return nil
}

var replayCfg replaySettings

func main() {
	log.SetFlags(0)
	specPath := flag.String("spec", "", "path to the pipeline spec JSON (required unless -serve)")
	outDir := flag.String("out", "build", "output directory for generated artifacts")
	platform := flag.String("platform", "", "override the spec's platform.kind; \"all\" sweeps every registered backend")
	timeout := flag.Duration("timeout", 0, "abort compilation after this long (0 = no limit)")
	progress := flag.Bool("progress", false, "print pipeline stage events to stderr")
	serveAddr := flag.String("serve", "", "run as a compilation daemon on this address (e.g. :8077) instead of compiling a spec")
	remote := flag.String("remote", "", "submit the spec to a running daemon at this base URL (e.g. http://127.0.0.1:8077) instead of compiling locally")
	deploy := flag.Bool("deploy", false, "deploy the compiled pipeline in-process and replay a synthetic trace through it")
	replay := flag.Int("replay", 0, "replay this many trace samples through the deployment (implies -deploy; 0 = one pass over the natural trace)")
	clients := flag.Int("clients", 0, "concurrent replay clients (default GOMAXPROCS)")
	batch := flag.Int("batch", 0, "deployment micro-batch flush threshold (default 64)")
	batchDelay := flag.Duration("batch-delay", 0, "hold partial micro-batches up to this long (unset = greedy flush, 500µs bound under -adaptive; negative = always greedy)")
	shards := flag.Int("shards", 0, "deployment inference shards (default GOMAXPROCS)")
	queue := flag.Int("queue", 0, "deployment ring depth; requests beyond it shed (default 1024)")
	adaptive := flag.Bool("adaptive", false, "enable the adaptive arrival-rate flush predictor on the replay deployment (requires a positive -batch-delay bound; default 500µs)")
	burst := flag.Bool("burst", false, "pace the replay as open-loop offered load with 100× mean-rate spikes (implies -deploy; digests are not reproducible)")
	tuneFlag := flag.Bool("tune", false, "after compiling, tune the serving config by replaying the trace against sandboxed candidates (docs/tuning.md)")
	sloFlag := flag.String("slo", "", "serving SLO for -tune, e.g. \"p99<=2ms,drops=0\" (default \""+defaultSLO+"\")")
	tuneBudget := flag.Int("tune-budget", 0, "candidate evaluation budget for -tune (default 24)")
	tuneSeed := flag.Int64("tune-seed", 0, "optimizer seed for -tune (default: the spec's search.seed)")
	endpoint := flag.String("endpoint", "", "serve the compiled pipeline behind a named endpoint (implies -deploy)")
	rollout := flag.Bool("rollout", false, "mid-replay, recompile the spec (seed+1) and roll it out as a new revision (requires -endpoint)")
	canary := flag.Int("canary", 0, "canary traffic percent for the -rollout revision (0 = deploy warm, no traffic)")
	shadow := flag.Bool("shadow", false, "mirror traffic to the -rollout revision off the record instead of splitting it")
	promote := flag.Bool("promote", false, "promote the mid-replay rollout at the three-quarter mark")
	rollback := flag.Bool("rollback", false, "roll the mid-replay rollout back at the three-quarter mark")
	validateFlag := flag.Bool("validate", false, "translation-validate emitted artifacts against the model's reference semantics; exit nonzero on divergence (docs/validation.md)")
	modelPath := flag.String("model", "", "serialized model JSON to validate -code against (artifact mode; requires -validate)")
	codeFile := flag.String("code", "", "emitted artifact file (.p4/.spatial) to validate against -model")
	reproPath := flag.String("repro", "", "replay a saved divergence repro JSON; exit nonzero if it still reproduces")
	clusterURL := flag.String("cluster", "", "print the cluster status of the daemon at this base URL (peer table, cache and steal counters) and exit")
	flag.Parse()
	showProgress = *progress
	replayCfg = replaySettings{
		deploy:   *deploy || *replay > 0 || *endpoint != "" || *burst,
		samples:  *replay,
		clients:  *clients,
		batch:    *batch,
		delay:    *batchDelay,
		shards:   *shards,
		queue:    *queue,
		adaptive: *adaptive,
		burst:    *burst,
		endpoint: *endpoint,
		rollout:  *rollout,
		canary:   *canary,
		shadow:   *shadow,
		promote:  *promote,
		rollback: *rollback,
	}
	if err := replayCfg.validate(); err != nil {
		log.Fatalf("homunculus: %v", err)
	}
	tuneCfg = tuneSettings{
		enabled: *tuneFlag || *sloFlag != "",
		slo:     *sloFlag,
		budget:  *tuneBudget,
		seed:    *tuneSeed,
	}
	validateMode = *validateFlag
	if *reproPath != "" {
		if err := runReproReplay(*reproPath); err != nil {
			log.Fatalf("homunculus: %v", err)
		}
		return
	}
	if *modelPath != "" || *codeFile != "" {
		if !validateMode {
			log.Fatalf("homunculus: -model/-code are artifact validation inputs; add -validate")
		}
		if err := runValidateArtifact(*modelPath, *codeFile, *platform, *outDir); err != nil {
			log.Fatalf("homunculus: %v", err)
		}
		return
	}
	if *serveAddr != "" {
		if err := runServe(*serveAddr); err != nil {
			log.Fatalf("homunculus: %v", err)
		}
		return
	}
	if *clusterURL != "" {
		if err := runClusterStatus(*clusterURL, *timeout); err != nil {
			log.Fatalf("homunculus: %v", err)
		}
		return
	}
	if *specPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	// SIGINT/SIGTERM cancel the run context: the replayer stops issuing
	// and drains (accepted requests deliver, final stats print) instead
	// of dying mid-batch; a compilation in progress aborts cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *remote != "" {
		if replayCfg.deploy {
			log.Fatalf("homunculus: -deploy/-replay/-endpoint serve in-process; they are not available with -remote")
		}
		if tuneCfg.enabled {
			log.Fatalf("homunculus: -tune replays in-process; tune a daemon endpoint via POST /v1/endpoints/{name}/tune instead")
		}
		if err := runRemote(ctx, *specPath, *outDir, *platform, *remote, *timeout); err != nil {
			log.Fatalf("homunculus: %v", err)
		}
		return
	}
	if err := run(ctx, *specPath, *outDir, *platform, *timeout); err != nil {
		log.Fatalf("homunculus: %v", err)
	}
}

// runServe exposes the compilation service over HTTP — the cmd/homunculusd
// daemon with default bounds, reachable from the main CLI binary (one
// shared serve loop: graceful drain on SIGINT/SIGTERM).
func runServe(addr string) error {
	httpapi.RegisterBuiltinLoaders()
	svc := homunculus.New(homunculus.ServiceOptions{})
	opts := svc.Options()
	log.Printf("homunculus: serving on %s (max in-flight %d, queue depth %d, cache %d)",
		addr, opts.MaxInFlight, opts.QueueDepth, opts.CacheEntries)
	return httpapi.ListenAndServe(addr, svc)
}

// runClusterStatus renders a cluster-mode daemon's view of the fabric:
// `homunculus -cluster http://node-a:8077`.
func runClusterStatus(baseURL string, timeout time.Duration) error {
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	st, err := httpapi.NewClient(baseURL).ClusterStatus(ctx)
	if err != nil {
		return fmt.Errorf("cluster status from %s: %w", baseURL, err)
	}
	fmt.Printf("node %s at %s (cache mode %s)\n", st.Self.ID, st.Self.Addr, st.CacheMode)
	fmt.Printf("  load: %d queued, %d running (max in-flight %d, queue depth %d)\n",
		st.Self.Queued, st.Self.Running, st.Self.MaxInFlight, st.Self.QueueDepth)
	if len(st.Peers) == 0 {
		fmt.Println("peers: none known")
	} else {
		fmt.Printf("peers (%d):\n", len(st.Peers))
		for _, p := range st.Peers {
			extra := ""
			if p.Quarantined {
				extra = " QUARANTINED"
			}
			id := p.ID
			if id == "" {
				id = "?"
			}
			fmt.Printf("  %-10s %s  %s  queued=%d running=%d last_seen=%dms%s\n",
				p.State, id, p.Addr, p.Queued, p.Running, p.LastSeenMS, extra)
		}
	}
	fmt.Printf("cache [%s]: %d remote hits, %d misses, %d poisoned, %d served, %d broadcast, %d installed (fetch p50 %s, p99 %s)\n",
		st.Cache.Mode, st.Cache.RemoteHits, st.Cache.RemoteMisses, st.Cache.Poisoned,
		st.Cache.Served, st.Cache.BroadcastsSent, st.Cache.Installs,
		time.Duration(st.Cache.FetchP50NS), time.Duration(st.Cache.FetchP99NS))
	fmt.Printf("steal: %d delegated (%d ran local), %d granted, %d completed remotely, %d reclaimed; as thief: %d attempts, %d executed\n",
		st.Steal.Delegated, st.Steal.DelegatedLocal, st.Steal.StolenGranted,
		st.Steal.StolenCompleted, st.Steal.Reclaimed,
		st.Steal.StealsAttempted, st.Steal.StealsExecuted)
	return nil
}

// runRemote ships the spec to a running daemon over the retrying HTTP
// client (capped backoff + jitter, Retry-After honored — the submission
// rides through admission sheds and daemon restarts), polls the job to
// a terminal state, and writes the generated code artifact locally.
// Remote submission carries the spec's dataset as a catalog name the
// daemon resolves ("nslkdd", "iottc", "botnet"); CSV files and per-spec
// samples/seed overrides only exist on this machine and are rejected.
func runRemote(ctx context.Context, specPath, outDir, platformOverride, baseURL string, timeout time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	spec, err := loadSpec(specPath, platformOverride)
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
	req := httpapi.SubmitRequest{Platform: doc, Search: &spec.Search, Validate: validateMode}

	client := httpapi.NewClient(baseURL)
	job, err := client.SubmitJob(ctx, req)
	if err != nil {
		return fmt.Errorf("submit to %s: %w", baseURL, err)
	}
	fmt.Printf("submitted %s to %s (state %s)\n", job.ID, baseURL, job.State)
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
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	codePath := filepath.Join(outDir, spec.Name+backend.CodeExt(full.Result.Platform))
	if err := os.WriteFile(codePath, []byte(app.Code), 0o644); err != nil {
		return fmt.Errorf("write code: %w", err)
	}
	fmt.Printf("pipeline %q compiled remotely for %s\n", spec.Name, full.Result.Platform)
	fmt.Printf("  algorithm:  %s\n", app.Algorithm)
	fmt.Printf("  metric:     %.4f (%s, quantized)\n", app.Metric, orDefault(spec.Metric, "f1"))
	fmt.Printf("  cache hit:  %v\n", full.CacheHit)
	fmt.Printf("  feasible:   %v\n", app.Feasible)
	fmt.Printf("  code:       %s\n", codePath)
	if validateMode {
		v := app.Validation
		switch {
		case v == nil:
			return fmt.Errorf("daemon returned no validation verdict")
		case v.OK:
			fmt.Printf("  validation: equivalent across %v on %d inputs\n", v.Evaluators, v.Inputs)
		case v.Error != "":
			return fmt.Errorf("translation validation failed: %s", v.Error)
		default:
			return fmt.Errorf("translation validation failed: diverged on %d/%d inputs across %v", v.Divergences, v.Inputs, v.Evaluators)
		}
	}
	return nil
}

// printEvent renders one platform-tagged progress line.
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

func run(ctx context.Context, specPath, outDir, platformOverride string, timeout time.Duration) error {
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	spec, err := loadSpec(specPath, platformOverride)
	if err != nil {
		return err
	}
	loader, err := buildLoader(spec.Data, filepath.Dir(specPath))
	if err != nil {
		return err
	}
	platform, search, err := spec.declare(loader)
	if err != nil {
		return err
	}

	if spec.Platform.Kind == "all" {
		if replayCfg.deploy {
			return fmt.Errorf("-deploy/-replay apply to a single-target compilation, not -platform all")
		}
		if tuneCfg.enabled {
			return fmt.Errorf("-tune applies to a single-target compilation, not -platform all")
		}
		return runSweep(ctx, spec, platform, outDir, search)
	}

	pipe, err := compilePipeline(ctx, platform, search)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("compilation timed out after %v: %w", timeout, err)
		}
		return err
	}
	app := pipe.Apps[0]
	if app.Model == nil {
		fmt.Println("no feasible model found under the given constraints; candidates:")
		for _, c := range app.Candidates {
			if c.Skipped != "" {
				fmt.Printf("  %-8s skipped: %s\n", c.Algorithm, c.Skipped)
			} else {
				fmt.Printf("  %-8s explored %d configurations, none feasible\n", c.Algorithm, len(c.BO.History))
			}
		}
		return fmt.Errorf("compilation produced no deployable pipeline")
	}

	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}
	codePath := filepath.Join(outDir, spec.Name+backend.CodeExt(pipe.Platform))
	if err := os.WriteFile(codePath, []byte(app.Code), 0o644); err != nil {
		return fmt.Errorf("write code: %w", err)
	}
	// Emit the design-space description the optimizer searched — the
	// HyperMapper-style JSON interface of §4.
	if len(spec.Algorithms) > 0 {
		if kind, err := ir.ParseKind(spec.Algorithms[0]); err == nil {
			train, test, derr := loaderDatasets(loader)
			if derr == nil {
				space := core.DesignSpace(core.App{Name: spec.Name, Train: train, Test: test}, search, kind)
				spacePath := filepath.Join(outDir, spec.Name+".space.json")
				if sf, err := os.Create(spacePath); err == nil {
					if err := space.WriteJSON(sf, spec.Name); err != nil {
						sf.Close()
						return err
					}
					sf.Close()
					fmt.Printf("space artifact: %s\n", spacePath)
				}
			}
		}
	}

	modelPath := filepath.Join(outDir, spec.Name+".model.json")
	f, err := os.Create(modelPath)
	if err != nil {
		return fmt.Errorf("create model file: %w", err)
	}
	defer f.Close()
	if err := app.Model.WriteJSON(f); err != nil {
		return err
	}

	fmt.Printf("pipeline %q compiled for %s\n", spec.Name, pipe.Platform)
	fmt.Printf("  algorithm:  %s\n", app.Algorithm)
	fmt.Printf("  metric:     %.4f (%s, quantized)\n", app.Metric, orDefault(spec.Metric, "f1"))
	fmt.Printf("  params:     %d\n", app.Model.ParamCount())
	fmt.Printf("  verdict:    feasible=%v", app.Verdict.Feasible)
	for _, k := range []string{"cus", "mus", "tables", "latency_ns", "throughput_gpkts", "lut_pct", "power_w"} {
		if v, ok := app.Verdict.Metrics[k]; ok {
			fmt.Printf(" %s=%.2f", k, v)
		}
	}
	fmt.Println()
	fmt.Printf("  code:       %s\n", codePath)
	fmt.Printf("  model:      %s\n", modelPath)
	if validateMode {
		if err := reportValidation(app, outDir, spec.Name); err != nil {
			return err
		}
	}
	if tuneCfg.enabled {
		if err := runTune(ctx, spec, loader, pipe); err != nil {
			return err
		}
	}
	if replayCfg.deploy {
		return runReplay(ctx, spec, loader, platform, pipe, search)
	}
	return nil
}

// compilePipeline runs one single-target compilation of the spec's
// declaration — shared by run and the mid-replay rollout (which
// recompiles it under a bumped seed).
func compilePipeline(ctx context.Context, platform *alchemy.Platform, search core.SearchConfig) (*homunculus.Pipeline, error) {
	genOpts := []homunculus.Option{homunculus.WithSearchConfig(search)}
	if showProgress {
		genOpts = append(genOpts, homunculus.WithProgress(printEvent))
	}
	if validateMode {
		genOpts = append(genOpts, homunculus.WithValidation())
	}
	return homunculus.Generate(ctx, platform, genOpts...)
}

// replayReport captures the outcome of the most recent replay so tests
// can assert on it (the same pattern as the replayCfg global).
type replayReport struct {
	digest      string
	result      serve.ReplayResult
	final       homunculus.ServingStats // merged, post-drain
	endpoint    *homunculus.EndpointStats
	interrupted bool
}

var lastReplayReport *replayReport

// classesDigest hashes a recorded classification sequence so fixed-seed
// replays can be compared byte-for-byte across serving paths.
func classesDigest(record []int) string {
	h := sha256.New()
	var buf [4]byte
	for _, c := range record {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(c)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// addResult folds one replay segment into an aggregate.
func addResult(agg *serve.ReplayResult, res serve.ReplayResult) {
	agg.Requests += res.Requests
	agg.Issued += res.Issued
	agg.Delivered += res.Delivered
	agg.Dropped += res.Dropped
	agg.Errors += res.Errors
	agg.Correct += res.Correct
	agg.Elapsed += res.Elapsed
	if agg.Elapsed > 0 {
		agg.Rate = float64(agg.Delivered) / agg.Elapsed.Seconds()
		if res.OfferedRate > 0 { // burst-paced segments
			agg.OfferedRate = float64(agg.Issued) / agg.Elapsed.Seconds()
		}
	}
	if agg.Delivered > 0 {
		agg.Accuracy = float64(agg.Correct) / float64(agg.Delivered)
	}
}

// burstRate caches the calibrated mean offered rate for the current
// -burst run (req/s), so a multi-segment endpoint replay paces every
// segment identically. Reset by runReplay.
var burstRate float64

// replaySegment issues one replay leg: the closed-loop ReplayRun by
// default, or — under -burst — the open-loop ReplayBurst, paced at a mean
// rate calibrated once per run.
func replaySegment(ctx context.Context, c serve.Classifier, xs [][]float64, labels []int, clients int, record []int) (serve.ReplayResult, error) {
	if !replayCfg.burst {
		return serve.ReplayRun(ctx, c, xs, labels, clients, record)
	}
	if burstRate == 0 {
		burstRate = calibrateBurstRate(c, xs)
		fmt.Printf("burst: calibrated mean offered load %.0f req/s (spikes at 100×)\n", burstRate)
	}
	return serve.ReplayBurst(ctx, c, xs, labels, clients, record, serve.BurstOptions{MeanRate: burstRate})
}

// calibrateBurstRate measures sequential service throughput over a short
// warmup prefix and targets half of it as the mean offered rate: the
// quiet phase then stays comfortably under capacity, so any sheds in the
// report are driven by the 100× burst windows alone. The warmup requests
// do count in the deployment's lifetime stats (burst mode measures load
// behaviour, not byte-identity).
func calibrateBurstRate(c serve.Classifier, xs [][]float64) float64 {
	warm := len(xs)
	if warm > 256 {
		warm = 256
	}
	start := time.Now()
	served := 0
	for i := 0; i < warm; i++ {
		if _, err := c.Classify(xs[i]); err == nil {
			served++
		}
	}
	elapsed := time.Since(start)
	if served == 0 || elapsed <= 0 {
		return 1000 // inert fallback; the deployment is erroring anyway
	}
	rate := float64(served) / elapsed.Seconds() / 2
	if rate < 1 {
		rate = 1
	}
	return rate
}

// replayEndpointOptions renders the replay flag knobs as one
// ServingConfig. max_delay_ns is present iff -batch-delay was given, so
// the default stays the greedy flush the byte-identity digests are
// pinned to and a positive -batch-delay holds partial batches up to it.
func replayEndpointOptions() homunculus.EndpointOptions {
	cfg := homunculus.ServingConfig{
		Shards:        replayCfg.shards,
		BatchSize:     replayCfg.batch,
		QueueDepth:    replayCfg.queue,
		AdaptiveFlush: replayCfg.adaptive,
	}
	if replayCfg.delay != 0 {
		delay := int64(replayCfg.delay)
		cfg.MaxDelayNS = &delay
	}
	return homunculus.EndpointOptions{Serving: cfg}
}

// runReplay serves the compiled pipeline in-process behind a named
// endpoint — "replay" unless -endpoint names it — and drives it with the
// replayed trace (docs/serving.md).
func runReplay(ctx context.Context, spec Spec, loader alchemy.DataLoader, platform *alchemy.Platform, pipe *homunculus.Pipeline, search core.SearchConfig) error {
	burstRate = 0
	xs, labels, err := buildTrace(spec, loader, replayCfg.samples)
	if err != nil {
		return err
	}
	clients := replayCfg.clients
	if clients <= 0 {
		clients = runtime.GOMAXPROCS(0)
	}
	svc := homunculus.New(homunculus.ServiceOptions{})
	defer svc.Close()
	return runEndpointReplay(ctx, svc, platform, pipe, search, xs, labels, clients)
}

// runEndpointReplay serves behind a named endpoint and optionally drives
// a live rollout mid-replay: first half on revision 1, then -rollout
// recompiles the spec (seed+1) and rolls it out as a canary or shadow,
// the third quarter runs the split, -promote/-rollback fire at the
// three-quarter mark, and the final quarter runs the settled route.
func runEndpointReplay(ctx context.Context, svc *homunculus.Service, platform *alchemy.Platform, pipe *homunculus.Pipeline, search core.SearchConfig, xs [][]float64, labels []int, clients int) error {
	ep, err := svc.CreateEndpointPipeline(orDefault(replayCfg.endpoint, "replay"), pipe, replayEndpointOptions())
	if err != nil {
		return err
	}
	cfg := ep.ServingConfig()
	fmt.Printf("endpoint %q rev 1: platform=%s algorithm=%s shards=%d batch=%d flush=%s queue=%d clients=%d\n",
		ep.Name(), ep.Platform(), ep.Model().Kind, cfg.Shards, cfg.BatchSize, describeFlush(cfg), cfg.QueueDepth, clients)

	record := newRecord(len(xs))
	var agg serve.ReplayResult
	segment := func(lo, hi int) error {
		if lo >= hi || ctx.Err() != nil {
			return nil
		}
		res, err := replaySegment(ctx, ep, xs[lo:hi], labels[lo:hi], clients, record[lo:hi])
		if err != nil {
			return err
		}
		addResult(&agg, res)
		return nil
	}

	n := len(xs)
	if !replayCfg.rollout {
		if err := segment(0, n); err != nil {
			return err
		}
	} else {
		if err := segment(0, n/2); err != nil {
			return err
		}
		if ctx.Err() == nil {
			s2 := search
			s2.Seed = search.Seed + 1
			fmt.Printf("recompiling for rollout (seed %d)...\n", s2.Seed)
			pipe2, err := compilePipeline(ctx, platform, s2)
			if err != nil {
				return fmt.Errorf("rollout compilation: %w", err)
			}
			rev, err := ep.RolloutPipeline(pipe2, homunculus.RolloutOptions{
				CanaryPercent: replayCfg.canary,
				Shadow:        replayCfg.shadow,
			})
			if err != nil {
				return err
			}
			switch {
			case replayCfg.shadow:
				fmt.Printf("rollout: revision %d shadowing all traffic (scored off the record)\n", rev.ID)
			default:
				fmt.Printf("rollout: revision %d serving %d%% canary traffic\n", rev.ID, replayCfg.canary)
			}
		}
		if err := segment(n/2, 3*n/4); err != nil {
			return err
		}
		if ctx.Err() == nil {
			switch {
			case replayCfg.promote:
				if err := ep.Promote(); err != nil {
					return err
				}
				stable, _, _, _ := ep.View()
				fmt.Printf("promoted: revision %d is now stable\n", stable)
			case replayCfg.rollback:
				if err := ep.Rollback(); err != nil {
					return err
				}
				stable, _, _, _ := ep.View()
				fmt.Printf("rolled back: revision %d keeps all traffic\n", stable)
			}
		}
		if err := segment(3*n/4, n); err != nil {
			return err
		}
	}
	if ctx.Err() != nil {
		fmt.Printf("interrupted after %d/%d samples; draining accepted requests\n", agg.Issued, n)
	}
	printReplaySummary(agg, ep.Stats().Merged)
	digest := classesDigest(record)
	fmt.Printf("classes digest: sha256:%s\n", digest)

	// Delete drains every revision (and flushes pending shadow mirrors),
	// so the final report is the endpoint's complete lifetime.
	final, err := svc.DeleteEndpoint(ep.Name())
	if err != nil {
		return err
	}
	fmt.Printf("final: accepted=%d completed=%d dropped=%d errors=%d\n",
		final.Merged.Accepted, final.Merged.Completed, final.Merged.Dropped, final.Merged.Errors)
	fmt.Println("revisions:")
	for _, r := range final.Revisions {
		fmt.Printf("  rev %d [%s] job=%s completed=%d dropped=%d p50=%v p99=%v\n",
			r.ID, r.State, orDefault(r.JobID, "-"), r.Stats.Completed, r.Stats.Dropped, r.Stats.P50, r.Stats.P99)
	}
	if d := final.Shadow; d != nil {
		fmt.Printf("shadow divergence (rev %d): mirrored=%d agree=%d disagree=%d errors=%d shed=%d\n",
			d.Revision, d.Mirrored, d.Agreed, d.Disagreed, d.Errors, d.Shed)
		for p, row := range d.Pairs {
			for s, count := range row {
				if p != s && count > 0 {
					fmt.Printf("  primary=%d shadow=%d: %d\n", p, s, count)
				}
			}
		}
	}
	lastReplayReport = &replayReport{
		digest: digest, result: agg, final: final.Merged,
		endpoint: &final, interrupted: ctx.Err() != nil,
	}
	return nil
}

// newRecord pre-fills a classification record with -2 ("never issued")
// so interrupted replays digest distinctly from shed requests (-1).
func newRecord(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = -2
	}
	return r
}

// printReplaySummary renders the replay aggregate and serving metrics.
func printReplaySummary(res serve.ReplayResult, st homunculus.ServingStats) {
	fmt.Printf("replayed %d samples in %v: %.0f req/s, accuracy %.4f (delivered %d, dropped %d, errors %d)\n",
		res.Requests, res.Elapsed.Round(time.Microsecond), res.Rate, res.Accuracy,
		res.Delivered, res.Dropped, res.Errors)
	if res.OfferedRate > 0 {
		shed := 0.0
		if res.Issued > 0 {
			shed = 100 * float64(res.Dropped) / float64(res.Issued)
		}
		fmt.Printf("burst: offered %.0f req/s, shed %.1f%% of offered load\n", res.OfferedRate, shed)
	}
	fmt.Printf("latency: p50=%v p99=%v; batches=%d (mean %.1f, %d full, %d deadline)\n",
		st.P50, st.P99, st.Batches, st.MeanBatch, st.FullFlushes, st.DeadlineFlushes)
	fmt.Printf("per-class:")
	for c, n := range st.PerClass {
		fmt.Printf(" %d=%d", c, n)
	}
	fmt.Println()
}

// buildTrace assembles the replay trace. The botnet generator replays
// the per-packet partial-flowmarker stream a data plane would actually
// classify (internal/stream.Trace over the regenerated packet corpus);
// every other source replays its test split. n > 0 cycles or truncates
// the trace to exactly n samples.
func buildTrace(spec Spec, loader alchemy.DataLoader, n int) ([][]float64, []int, error) {
	var xs [][]float64
	var labels []int
	if spec.Data.Generator == "botnet" {
		cfg := botnet.DefaultConfig()
		if spec.Data.Samples > 0 {
			cfg.Flows = spec.Data.Samples
		}
		if spec.Data.Seed != 0 {
			cfg.Seed = spec.Data.Seed
		}
		flows, err := botnet.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		xs, labels, err = stream.Trace(packet.PaperBD, botnet.MergePackets(flows))
		if err != nil {
			return nil, nil, err
		}
	} else {
		_, test, err := loaderDatasets(loader)
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < test.Len(); i++ {
			xs = append(xs, append([]float64{}, test.X.Row(i)...))
		}
		labels = append(labels, test.Y...)
	}
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("replay trace is empty")
	}
	if n > 0 {
		cx := make([][]float64, n)
		cl := make([]int, n)
		for i := 0; i < n; i++ {
			cx[i] = xs[i%len(xs)]
			cl[i] = labels[i%len(labels)]
		}
		xs, labels = cx, cl
	}
	return xs, labels, nil
}

// loaderDatasets materializes a loader's output as internal datasets.
func loaderDatasets(l alchemy.DataLoader) (*dataset.Dataset, *dataset.Dataset, error) {
	data, err := l.Load()
	if err != nil {
		return nil, nil, err
	}
	return data.Datasets()
}

func buildLoader(d DataSpec, baseDir string) (alchemy.DataLoader, error) {
	if d.TrainCSV != "" || d.TestCSV != "" {
		if d.TrainCSV == "" || d.TestCSV == "" {
			return nil, fmt.Errorf("both train_csv and test_csv are required")
		}
		trainPath := resolve(baseDir, d.TrainCSV)
		testPath := resolve(baseDir, d.TestCSV)
		return alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
			train, err := readCSV(trainPath)
			if err != nil {
				return nil, err
			}
			test, err := readCSV(testPath)
			if err != nil {
				return nil, err
			}
			return alchemy.FromDatasets(train, test), nil
		}), nil
	}
	switch d.Generator {
	case "nslkdd":
		return loaders.NSLKDD(d.Samples, d.Seed), nil
	case "iottc":
		return loaders.IoTTC(d.Samples, d.Seed), nil
	case "botnet":
		return loaders.Botnet(d.Samples, d.Seed), nil
	case "":
		return nil, fmt.Errorf("spec needs data.generator or data.train_csv/test_csv")
	default:
		return nil, fmt.Errorf("unknown generator %q (have nslkdd, iottc, botnet)", d.Generator)
	}
}

// runSweep compiles the spec against every registered backend and prints
// the per-target feasibility table, writing code artifacts for each
// deployable target.
func runSweep(ctx context.Context, spec Spec, base *alchemy.Platform, outDir string, search core.SearchConfig) error {
	// Per-target compilations interleave on the service, so sweep
	// progress is always printed platform-tagged: Event.Platform is what
	// lets one observer tell the concurrent streams apart.
	sweepOpts := []homunculus.Option{homunculus.WithSearchConfig(search), homunculus.WithProgress(printEvent)}
	if validateMode {
		sweepOpts = append(sweepOpts, homunculus.WithValidation())
	}
	reports, err := homunculus.GenerateAcross(ctx, base, nil, sweepOpts...)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return fmt.Errorf("create output dir: %w", err)
	}

	fmt.Printf("cross-platform sweep of %q over %d backends\n", spec.Name, len(reports))
	fmt.Printf("%-10s %-9s %-8s %-9s %s\n", "platform", "algo", "metric", "feasible", "detail")
	deployable := 0
	var diverged []string
	for _, r := range reports {
		if r.Err != nil {
			fmt.Printf("%-10s %-9s %-8s %-9s %v\n", r.Platform, "-", "-", "error", r.Err)
			continue
		}
		app := r.Pipeline.Apps[0]
		if app.Model == nil {
			fmt.Printf("%-10s %-9s %-8s %-9v %s\n", r.Platform, "-", "-", false, sweepDetail(app))
			continue
		}
		deployable++
		detail := verdictDetail(app.Verdict)
		if validateMode {
			detail += " | " + app.Validation.String()
			if !app.Validation.OK() {
				diverged = append(diverged, r.Platform)
			}
		}
		fmt.Printf("%-10s %-9s %-8.4f %-9v %s\n",
			r.Platform, app.Algorithm, app.Metric, app.Verdict.Feasible, detail)
		codePath := filepath.Join(outDir, spec.Name+"."+r.Platform+backend.CodeExt(r.Platform))
		if err := os.WriteFile(codePath, []byte(app.Code), 0o644); err != nil {
			return fmt.Errorf("write code for %s: %w", r.Platform, err)
		}
	}
	if deployable == 0 {
		return fmt.Errorf("no registered backend produced a deployable pipeline")
	}
	fmt.Printf("%d/%d backends deployable; artifacts in %s\n", deployable, len(reports), outDir)
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

// verdictDetail renders the interesting verdict metrics compactly.
func verdictDetail(v core.Verdict) string {
	var parts []string
	for _, k := range []string{"cus", "mus", "tables", "latency_ns", "throughput_gpkts", "lut_pct", "power_w"} {
		if val, ok := v.Metrics[k]; ok {
			parts = append(parts, fmt.Sprintf("%s=%.2f", k, val))
		}
	}
	return strings.Join(parts, " ")
}

func readCSV(path string) (*dataset.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", path, err)
	}
	defer f.Close()
	return dataset.ReadCSV(f)
}

func resolve(baseDir, p string) string {
	if filepath.IsAbs(p) {
		return p
	}
	return filepath.Join(baseDir, p)
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}
