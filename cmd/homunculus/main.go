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
//	homunculus -spec pipeline.json -remote http://127.0.0.1:8077
//	                                               # compile on a homunculusd daemon
//	homunculus -cluster http://127.0.0.1:8077      # a daemon's cluster view
//
//	# serve behind a named endpoint and drive a live canary rollout
//	# (recompiled with seed+1) halfway through the replay, promoting at
//	# the three-quarter mark:
//	homunculus -spec pipeline.json -replay 5000 -endpoint ad \
//	           -rollout -canary 25 -promote
//
// -platform overrides the spec's platform.kind; "all" compiles the spec
// against every registered backend and prints the per-target
// feasibility table (sweep progress is always platform-tagged on
// stderr). -timeout cancels compilation through the pipeline's context.
// -remote submits the spec to a cmd/homunculusd daemon (docs/api.md)
// over the retrying HTTP client and writes the returned code to -out;
// the dataset must be a catalog name the daemon resolves.
//
// -deploy serves the compiled pipeline behind an in-process endpoint
// ("replay", or the -endpoint name) and replays a synthetic trace
// through it (docs/serving.md): the botnet generator's per-packet
// flowmarker stream, else the test split, cycled to -replay N samples.
// It prints rate, latency quantiles, accuracy and a sha256 digest of the
// delivered classes, byte-comparable across serving paths for a fixed
// seed. -burst paces the replay open-loop at a calibrated mean rate
// with 100× spikes to exercise shedding (its digests are not
// reproducible). With -endpoint, -rollout recompiles the spec (seed+1)
// halfway through and rolls it out as a -canary N slice or a -shadow
// mirror; -promote / -rollback settle it at the three-quarter mark.
// SIGINT/SIGTERM drain the replay: accepted requests still deliver and
// the final stats print.
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
//
// This file parses the flags into one config and dispatches; compile.go,
// replay.go, tune.go and validate.go hold the modes.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/alchemy"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/httpapi"
	"repro/internal/loaders"
)

// config is one parsed command line. Every mode reads what it needs from
// it and prints its report to out.
type config struct {
	out      io.Writer
	spec     string
	outDir   string
	platform string
	timeout  time.Duration
	progress bool
	validate bool
	model    string
	code     string
	repro    string
	remote   string
	cluster  string
	replay   replaySettings
	tune     tuneSettings
}

// parseFlags parses the command line into a config, applies the flag
// implications (-replay, -endpoint and -burst deploy; -slo tunes) and
// refuses contradictory combinations. A flag syntax error, -h, or a
// command line without a mode returns flag.ErrHelp after the usage is
// printed.
func parseFlags(args []string) (config, error) {
	c := config{out: os.Stdout}
	r, t := &c.replay, &c.tune
	fs := flag.NewFlagSet("homunculus", flag.ContinueOnError)
	fs.StringVar(&c.spec, "spec", "", "path to the pipeline spec JSON (required unless -repro, -model/-code or -cluster)")
	fs.StringVar(&c.outDir, "out", "build", "output directory for generated artifacts")
	fs.StringVar(&c.platform, "platform", "", "override the spec's platform.kind; \"all\" sweeps every registered backend")
	fs.DurationVar(&c.timeout, "timeout", 0, "abort compilation after this long (0 = no limit)")
	fs.BoolVar(&c.progress, "progress", false, "print pipeline stage events to stderr")
	fs.StringVar(&c.remote, "remote", "", "submit the spec to a running daemon at this base URL (e.g. http://127.0.0.1:8077) instead of compiling locally")
	fs.BoolVar(&r.deploy, "deploy", false, "deploy the compiled pipeline in-process and replay a synthetic trace through it")
	fs.IntVar(&r.samples, "replay", 0, "replay this many trace samples through the deployment (implies -deploy; 0 = one pass over the natural trace)")
	fs.IntVar(&r.clients, "clients", 0, "concurrent replay clients (default GOMAXPROCS)")
	fs.IntVar(&r.batch, "batch", 0, "deployment micro-batch flush threshold (default 64)")
	fs.DurationVar(&r.delay, "batch-delay", 0, "hold partial micro-batches up to this long (unset = greedy flush, 500µs bound under -adaptive; negative = always greedy)")
	fs.IntVar(&r.shards, "shards", 0, "deployment inference shards (default GOMAXPROCS)")
	fs.IntVar(&r.queue, "queue", 0, "deployment ring depth; requests beyond it shed (default 1024)")
	fs.BoolVar(&r.adaptive, "adaptive", false, "enable the adaptive arrival-rate flush predictor on the replay deployment (requires a positive -batch-delay bound; default 500µs)")
	fs.BoolVar(&r.burst, "burst", false, "pace the replay as open-loop offered load with 100× mean-rate spikes (implies -deploy; digests are not reproducible)")
	fs.BoolVar(&t.enabled, "tune", false, "after compiling, tune the serving config by replaying the trace against sandboxed candidates (docs/tuning.md)")
	fs.StringVar(&t.slo, "slo", "", "serving SLO for -tune, e.g. \"p99<=2ms,drops=0\" (default \""+defaultSLO+"\")")
	fs.IntVar(&t.budget, "tune-budget", 0, "candidate evaluation budget for -tune (default 24)")
	fs.Int64Var(&t.seed, "tune-seed", 0, "optimizer seed for -tune (default: the spec's search.seed)")
	fs.StringVar(&r.endpoint, "endpoint", "", "serve the compiled pipeline behind a named endpoint (implies -deploy)")
	fs.BoolVar(&r.rollout, "rollout", false, "mid-replay, recompile the spec (seed+1) and roll it out as a new revision (requires -endpoint)")
	fs.IntVar(&r.canary, "canary", 0, "canary traffic percent for the -rollout revision (0 = deploy warm, no traffic)")
	fs.BoolVar(&r.shadow, "shadow", false, "mirror traffic to the -rollout revision off the record instead of splitting it")
	fs.BoolVar(&r.promote, "promote", false, "promote the mid-replay rollout at the three-quarter mark")
	fs.BoolVar(&r.rollback, "rollback", false, "roll the mid-replay rollout back at the three-quarter mark")
	fs.BoolVar(&c.validate, "validate", false, "translation-validate emitted artifacts against the model's reference semantics; exit nonzero on divergence (docs/validation.md)")
	fs.StringVar(&c.model, "model", "", "serialized model JSON to validate -code against (artifact mode; requires -validate)")
	fs.StringVar(&c.code, "code", "", "emitted artifact file (.p4/.spatial) to validate against -model")
	fs.StringVar(&c.repro, "repro", "", "replay a saved divergence repro JSON; exit nonzero if it still reproduces")
	fs.StringVar(&c.cluster, "cluster", "", "print the cluster status of the daemon at this base URL (peer table, cache and steal counters) and exit")
	if err := fs.Parse(args); err != nil {
		return c, flag.ErrHelp
	}
	if c.spec == "" && c.repro == "" && c.model == "" && c.code == "" && c.cluster == "" {
		fs.Usage()
		return c, flag.ErrHelp
	}
	r.deploy = r.deploy || r.samples > 0 || r.endpoint != "" || r.burst
	t.enabled = t.enabled || t.slo != ""

	switch {
	case c.timeout < 0:
		return c, fmt.Errorf("-timeout %v is negative", c.timeout)
	case r.samples < 0:
		return c, fmt.Errorf("-replay %d is negative", r.samples)
	case r.clients < 0:
		return c, fmt.Errorf("-clients %d is negative", r.clients)
	case (c.model != "" || c.code != "") && !c.validate:
		return c, fmt.Errorf("-model/-code are artifact validation inputs; add -validate")
	case c.remote != "" && r.deploy:
		return c, fmt.Errorf("-deploy/-replay/-endpoint serve in-process; they are not available with -remote")
	case c.remote != "" && t.enabled:
		return c, fmt.Errorf("-tune replays in-process; tune a daemon endpoint via POST /v1/endpoints/{name}/tune instead")
	case r.adaptive && r.delay < 0:
		return c, fmt.Errorf("-adaptive needs a positive -batch-delay bound; a negative delay is greedy flush with nothing to adapt")
	case r.endpoint == "" && (r.rollout || r.shadow || r.promote || r.rollback || r.canary != 0):
		return c, fmt.Errorf("-rollout/-canary/-shadow/-promote/-rollback require -endpoint")
	case r.canary < 0 || r.canary > 100:
		return c, fmt.Errorf("-canary %d out of [0,100]", r.canary)
	case r.shadow && r.canary != 0:
		return c, fmt.Errorf("-shadow and -canary are mutually exclusive")
	case r.promote && r.rollback:
		return c, fmt.Errorf("-promote and -rollback are mutually exclusive")
	case (r.promote || r.rollback || r.shadow || r.canary != 0) && !r.rollout:
		return c, fmt.Errorf("-canary/-shadow/-promote/-rollback shape the mid-replay rollout; add -rollout")
	}
	return c, nil
}

func main() {
	log.SetFlags(0)
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(2) // the flag set has printed the problem and the usage
	}
	if err == nil {
		// SIGINT/SIGTERM cancel the run context: the replayer stops
		// issuing and drains (accepted requests deliver, final stats
		// print) instead of dying mid-batch; a compilation in progress
		// aborts cleanly.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		err = execute(ctx, cfg)
		stop()
	}
	if err != nil {
		log.Fatalf("homunculus: %v", err)
	}
}

// execute runs the one mode cfg selects.
func execute(ctx context.Context, cfg config) error {
	switch {
	case cfg.repro != "":
		return runReproReplay(cfg)
	case cfg.model != "" || cfg.code != "":
		return runValidateArtifact(cfg)
	case cfg.cluster != "":
		return runClusterStatus(ctx, cfg)
	case cfg.remote != "":
		return runRemote(ctx, cfg)
	}
	_, err := run(ctx, cfg)
	return err
}

// bound applies -timeout to a mode's context.
func (c config) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout > 0 {
		return context.WithTimeout(ctx, c.timeout)
	}
	return context.WithCancel(ctx)
}

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

// buildLoader resolves the spec's data section; CSV paths are relative
// to the spec file's directory.
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

// loaderDatasets materializes a loader's output as internal datasets.
func loaderDatasets(l alchemy.DataLoader) (*dataset.Dataset, *dataset.Dataset, error) {
	data, err := l.Load()
	if err != nil {
		return nil, nil, err
	}
	return data.Datasets()
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
