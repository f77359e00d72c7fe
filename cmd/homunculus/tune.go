// The -tune flag group: replay-driven serving autotuning from the CLI
// (docs/tuning.md). After compilation, the trace that -replay would
// drive through a deployment is instead replayed against sandboxed
// candidate runtimes by the internal/tune optimizer, which prints the
// Pareto frontier over {p99, throughput, drop rate}, the chosen
// canonical ServingConfig, and a verification replay of that config
// re-checked against the SLO.
//
//	homunculus -spec pipeline.json -tune -slo "p99<=2ms,drops=0"
//	homunculus -spec pipeline.json -tune -tune-budget 12 -replay 2000

package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"repro/alchemy"
	"repro/internal/serve"
	"repro/internal/tune"

	homunculus "repro"
)

// defaultSLO is what -tune enforces when -slo is left empty.
const defaultSLO = "p99<=2ms,drops=0"

// tuneSettings is the -tune flag group.
type tuneSettings struct {
	enabled bool
	slo     string
	budget  int
	seed    int64
}

// tuneReport is the outcome of one tuning run: the tuner's report and
// the verification replay's measurement of the chosen config.
type tuneReport struct {
	report *tune.Report
	verify tune.Metrics
}

// runTune tunes the compiled pipeline's serving configuration against
// the replay trace and verifies the chosen config in a fresh replay. A
// run whose verification misses the SLO returns its report beside the
// error; an infeasible one returns no report.
func runTune(ctx context.Context, cfg config, spec Spec, loader alchemy.DataLoader, pipe *homunculus.Pipeline) (*tuneReport, error) {
	t, w := cfg.tune, cfg.out
	app := pipe.Apps[0]
	xs, _, err := buildTrace(spec, loader, cfg.replay.samples)
	if err != nil {
		return nil, err
	}
	sloStr := orDefault(t.slo, defaultSLO)
	slo, err := tune.ParseSLO(sloStr)
	if err != nil {
		return nil, err
	}
	seed := t.seed
	if seed == 0 {
		seed = spec.Search.Seed
	}
	fmt.Fprintf(w, "tuning %q serving config: SLO %q, seed %d, %d trace samples\n",
		spec.Name, sloStr, seed, len(xs))

	rep, err := tune.Run(ctx, app.Model, xs, tune.Options{
		Seed:      seed,
		Budget:    t.budget,
		SLO:       slo,
		Clients:   cfg.replay.clients,
		MaxShards: cfg.replay.shards,
	})
	if err != nil {
		var inf *tune.InfeasibleError
		if errors.As(err, &inf) {
			fmt.Fprintf(w, "no candidate met the SLO; closest miss %s violated: %v\n",
				describeConfig(inf.Best.Config), inf.Violations)
		}
		return nil, err
	}

	chosenKey, err := rep.Chosen.Config.Canonical()
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "evaluated %d candidates; Pareto frontier (%d points, * = chosen):\n",
		len(rep.Evaluations), len(rep.Front))
	for _, c := range rep.Front {
		key, err := c.Config.Canonical()
		if err != nil {
			return nil, err
		}
		mark := " "
		if bytes.Equal(key, chosenKey) {
			mark = "*"
		}
		fmt.Fprintf(w, "  %s %-44s %s\n", mark, describeConfig(c.Config), describeMetrics(c.Metrics))
	}
	fmt.Fprintf(w, "chosen config (canonical):\n  %s\n", chosenKey)

	// Verification replay: a fresh sandboxed runtime at the chosen
	// config, paced exactly as the tuner's evaluations were.
	rate, err := tune.Calibrate(app.Model, xs)
	if err != nil {
		return nil, err
	}
	// Mirror the tuner's client default (tune.Options), not GOMAXPROCS:
	// the verification must measure the same offered concurrency the
	// candidates were scored under, or its quantiles aren't comparable.
	clients := cfg.replay.clients
	if clients <= 0 {
		clients = 8
	}
	eval := tune.ReplayEvaluator(app.Model, xs, clients, serve.BurstOptions{MeanRate: rate})
	m, err := eval(ctx, rep.Chosen.Config)
	if err != nil {
		return nil, fmt.Errorf("verification replay: %w", err)
	}
	out := &tuneReport{report: rep, verify: m}
	fmt.Fprintf(w, "verification replay: %s\n", describeMetrics(m))
	if viol := slo.Check(m); len(viol) > 0 {
		return out, fmt.Errorf("chosen config missed SLO %q in the verification replay: %v", sloStr, viol)
	}
	fmt.Fprintf(w, "SLO %q met in verification replay\n", sloStr)
	return out, nil
}

// describeConfig renders a candidate config as a compact knob tuple.
func describeConfig(cfg serve.ServingConfig) string {
	r := cfg.Resolved()
	return fmt.Sprintf("batch=%d shards=%d flush=%s queue=%d",
		r.BatchSize, r.Shards, describeFlush(r), r.QueueDepth)
}

// describeFlush renders the flush policy a config runs: "greedy", or a
// holding policy with its bound, e.g. "fixed(250µs)".
func describeFlush(cfg serve.ServingConfig) string {
	policy, bound := cfg.Flush()
	if policy == serve.FlushGreedy {
		return policy.String()
	}
	return fmt.Sprintf("%s(%v)", policy, bound)
}

// describeMetrics renders one candidate's measurements.
func describeMetrics(m tune.Metrics) string {
	return fmt.Sprintf("p50=%v p99=%v tput=%.0f req/s drop=%.2f%%",
		m.P50.Round(time.Microsecond), m.P99.Round(time.Microsecond),
		m.Throughput, 100*m.DropRate)
}
