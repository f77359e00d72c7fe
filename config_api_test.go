package homunculus

// Tests for the canonical ServingConfig surface of the Go API: endpoint
// creation through EndpointOptions.Serving, the
// GET-edit-PUT-equivalent ApplyConfig path, validation failure shapes,
// durable persistence of presence-aware fields (explicit greedy flush,
// adaptive flush) across restart, and the Service-level tuner.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// TestServingConfigEndpointLifecycle drives the config document through
// an endpoint's life: created with an explicit greedy flush, read back
// losslessly, reconfigured via ApplyConfig (a promoted revision), and
// reported per revision.
func TestServingConfigEndpointLifecycle(t *testing.T) {
	svc, job1, _ := endpointService(t)

	zero := int64(0)
	ep, err := svc.CreateEndpoint("cfg", job1.ID(), EndpointOptions{
		Serving: ServingConfig{BatchSize: 8, MaxDelayNS: &zero},
	})
	if err != nil {
		t.Fatal(err)
	}

	cfg := ep.ServingConfig()
	if cfg.Version != 1 || cfg.BatchSize != 8 {
		t.Fatalf("effective config: %+v", cfg)
	}
	if cfg.MaxDelayNS == nil || *cfg.MaxDelayNS != 0 {
		t.Fatalf("explicit greedy flush must read back as a present zero: %+v", cfg)
	}

	// ApplyConfig is complete-document: the new config rides the atomic
	// rollout path and fully replaces the old knobs.
	delay := int64(250 * time.Microsecond)
	rev, err := ep.ApplyConfig(ServingConfig{BatchSize: 16, MaxDelayNS: &delay, AdaptiveFlush: true})
	if err != nil {
		t.Fatal(err)
	}
	if rev.ID != 2 || rev.JobID != job1.ID() || !rev.Warm {
		t.Fatalf("apply revision: %+v", rev)
	}
	if stable, _, _, _ := ep.View(); stable != 2 {
		t.Fatalf("applied config must be promoted, stable=%d", stable)
	}
	got := ep.ServingConfig()
	if got.BatchSize != 16 || !got.AdaptiveFlush || got.MaxDelayNS == nil || *got.MaxDelayNS != delay {
		t.Fatalf("post-apply config: %+v", got)
	}

	// Both revisions' configs are reportable, and the endpoint still
	// serves after the swap.
	revCfgs := ep.RevisionConfigs()
	if len(revCfgs) != 2 || revCfgs[1].BatchSize != 8 || revCfgs[2].BatchSize != 16 {
		t.Fatalf("revision configs: %+v", revCfgs)
	}
	data, err := sampleLoader(21).Load()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Classify(data.TestX[0]); err != nil {
		t.Fatal(err)
	}

	// An invalid document is rejected with every violation listed, and
	// the endpoint keeps its previous config.
	_, err = ep.ApplyConfig(ServingConfig{BatchSize: -1, Shards: 100000})
	var ce *ServingConfigError
	if !errors.As(err, &ce) || len(ce.Violations) != 2 {
		t.Fatalf("invalid apply: %v", err)
	}
	if ep.ServingConfig().BatchSize != 16 {
		t.Fatal("rejected apply must not change the effective config")
	}
}

// TestServingConfigValidationOnCreate: invalid Serving documents are
// rejected up front on the create and rollout paths, and there is no
// spelling that gets an out-of-range value past Validate.
func TestServingConfigValidationOnCreate(t *testing.T) {
	svc, job1, _ := endpointService(t)
	bad := ServingConfig{Version: 7, QueueDepth: -3}

	_, err := svc.CreateEndpoint("bad-cfg", job1.ID(), EndpointOptions{Serving: bad})
	var ce *ServingConfigError
	if !errors.As(err, &ce) || len(ce.Violations) != 2 {
		t.Fatalf("create with bad config: %v", err)
	}
	if !strings.Contains(err.Error(), "version") || !strings.Contains(err.Error(), "queue_depth") {
		t.Fatalf("violations must name fields: %v", err)
	}

	pipe, err := svc.jobPipeline(job1.ID())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateEndpointPipeline("bad-cfg", pipe, EndpointOptions{Serving: bad}); !errors.As(err, &ce) {
		t.Fatalf("create from a pipeline with bad config: %v", err)
	}

	// The same out-of-range value draws the same error text from every
	// Go-API way in.
	wide := ServingConfig{Shards: 300}
	want := wide.Validate().Error()
	_, cerr := svc.CreateEndpoint("wide", job1.ID(), EndpointOptions{Serving: wide})
	ep, err := svc.CreateEndpoint("ok", job1.ID(), EndpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := ep.Rollout(job1.ID(), RolloutOptions{Serving: wide})
	_, aerr := ep.ApplyConfig(wide)
	for way, err := range map[string]error{"create": cerr, "rollout": rerr, "apply": aerr} {
		if !errors.As(err, &ce) || !strings.Contains(err.Error(), want) {
			t.Fatalf("%s with shards 300: %v, want %q", way, err, want)
		}
	}
	if _, ok := svc.Endpoint("wide"); ok {
		t.Fatal("a refused config must not create an endpoint")
	}
}

// TestServingConfigDurableRestart: the presence-aware fields (explicit
// greedy flush, adaptive flush) survive the manifest round-trip — a
// restored endpoint runs the exact config that was applied, not a
// default-resolved approximation.
func TestServingConfigDurableRestart(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job, _ := runJob(t, svc)

	zero := int64(0)
	if _, err := svc.CreateEndpoint("greedy-ep", job.ID(), EndpointOptions{
		Serving: ServingConfig{BatchSize: 8, MaxDelayNS: &zero},
	}); err != nil {
		t.Fatal(err)
	}
	delay := int64(300 * time.Microsecond)
	ep, err := svc.CreateEndpoint("adaptive-ep", job.ID(), EndpointOptions{
		Serving: ServingConfig{BatchSize: 16, MaxDelayNS: &delay, AdaptiveFlush: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := ep.ServingConfig()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	greedy, ok := svc2.Endpoint("greedy-ep")
	if !ok {
		t.Fatal("greedy-ep not restored")
	}
	gcfg := greedy.ServingConfig()
	if gcfg.MaxDelayNS == nil || *gcfg.MaxDelayNS != 0 {
		t.Fatalf("explicit greedy flush lost across restart: %+v", gcfg)
	}
	adaptive, ok := svc2.Endpoint("adaptive-ep")
	if !ok {
		t.Fatal("adaptive-ep not restored")
	}
	acfg := adaptive.ServingConfig()
	if !acfg.AdaptiveFlush || acfg.MaxDelayNS == nil || *acfg.MaxDelayNS != delay || acfg.BatchSize != want.BatchSize {
		t.Fatalf("adaptive config lost across restart:\n  want %+v\n  got  %+v", want, acfg)
	}
	aw, _ := acfg.Canonical()
	ag, _ := want.Canonical()
	if string(aw) != string(ag) {
		t.Fatalf("restored config not canonical-identical:\n  want %s\n  got  %s", ag, aw)
	}
}

// TestServiceTune smokes the Go-API tuner on a compiled job and a live
// endpoint: deterministic reports, typed infeasibility, and Apply
// installing the winner.
func TestServiceTune(t *testing.T) {
	if testing.Short() {
		t.Skip("replay tuning is wall-clock bound")
	}
	svc, job1, _ := endpointService(t)
	opts := TuneOptions{
		SLO: "p99<=500ms", Seed: 5, Budget: 4, Clients: 2, MaxShards: 2, TraceSamples: 64,
	}
	rep, err := svc.Tune(context.Background(), job1.ID(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Front) == 0 || !rep.Chosen.Feasible {
		t.Fatalf("tune report: %+v", rep)
	}
	// Same seed + same synthetic trace ⇒ the same chosen config.
	rep2, err := svc.Tune(context.Background(), job1.ID(), opts)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := rep.Chosen.Config.Canonical()
	c2, _ := rep2.Chosen.Config.Canonical()
	if string(c1) != string(c2) {
		t.Fatalf("tuner not deterministic:\n  %s\n  %s", c1, c2)
	}

	// Infeasible SLO: typed error, closest miss attached.
	_, err = svc.Tune(context.Background(), job1.ID(), TuneOptions{
		SLO: "p99<=1ns", Seed: 5, Budget: 4, Clients: 2, MaxShards: 2, TraceSamples: 64,
	})
	if !errors.Is(err, ErrTuneInfeasible) {
		t.Fatalf("want ErrTuneInfeasible, got %v", err)
	}
	var inf *TuneInfeasibleError
	if !errors.As(err, &inf) || len(inf.Violations) == 0 {
		t.Fatalf("closest miss missing: %v", err)
	}

	// TuneEndpoint with Apply installs the chosen config in place.
	ep, err := svc.CreateEndpoint("tuned", job1.ID(), EndpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Apply = true
	erep, err := svc.TuneEndpoint(context.Background(), "tuned", opts)
	if err != nil {
		t.Fatal(err)
	}
	live, _ := ep.ServingConfig().Canonical()
	chosen, _ := erep.Chosen.Config.Resolved().Canonical()
	if got := ep.ServingConfig(); got.BatchSize != erep.Chosen.Config.BatchSize {
		t.Fatalf("apply mismatch:\n  live   %s\n  chosen %s", live, chosen)
	}
	if stable, _, _, _ := ep.View(); stable != 2 {
		t.Fatalf("applied config must be a promoted revision, stable=%d", stable)
	}
}
