package homunculus

// Tests for the canonical ServingConfig surface of the Go API: endpoint
// creation through EndpointOptions.Serving, the
// GET-edit-PUT-equivalent ApplyConfig path, validation failure shapes,
// durable persistence of presence-aware fields (explicit greedy flush,
// adaptive flush) across restart, and the Service-level tuner.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/tune"
)

// RevisionConfigs maps each revision ID to its stored document
// (RevisionInfo.Config), for tests that look a revision up by ID.
func (e *Endpoint) RevisionConfigs() map[int]ServingConfig {
	out := map[int]ServingConfig{}
	for _, r := range e.Revisions() {
		out[r.ID] = r.Config
	}
	return out
}

// revisionBounds renders what each revision of e runs: its stored
// document resolved — flush policy and hold bound, shards, batch, queue.
func revisionBounds(e *Endpoint) map[int]string {
	out := map[int]string{}
	for id, c := range e.RevisionConfigs() {
		r := c.Resolved()
		policy, bound := r.Flush()
		out[id] = fmt.Sprintf("%v/%v shards=%d batch=%d queue=%d", policy, bound, r.Shards, r.BatchSize, r.QueueDepth)
	}
	return out
}

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

// TestServingConfigGetPutIsIdentity: PUTting back the document GET
// returns changes nothing — not the flush policy the stable revision
// runs, not the bytes GET returns next. A default endpoint's GET used to
// carry max_delay_ns 500000, which applied back turned greedy flushing
// into a fixed 500µs hold.
func TestServingConfigGetPutIsIdentity(t *testing.T) {
	svc, job1, _ := endpointService(t)
	ns := func(d time.Duration) *int64 { v := int64(d); return &v }
	for name, cfg := range map[string]ServingConfig{
		"default":        {},
		"greedy":         {MaxDelayNS: ns(0)},
		"fixed":          {MaxDelayNS: ns(300 * time.Microsecond)},
		"adaptive":       {AdaptiveFlush: true},
		"adaptive-bound": {AdaptiveFlush: true, MaxDelayNS: ns(200 * time.Microsecond)},
	} {
		ep, err := svc.CreateEndpoint(name, job1.ID(), EndpointOptions{Serving: cfg})
		if err != nil {
			t.Fatal(err)
		}
		stable := func() string {
			id, _, _, _ := ep.View()
			return revisionBounds(ep)[id]
		}
		before, doc := stable(), ep.ServingConfig()
		get1, err := doc.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ep.ApplyConfig(doc); err != nil {
			t.Fatal(err)
		}
		get2, _ := ep.ServingConfig().Canonical()
		if after := stable(); after != before || !bytes.Equal(get1, get2) {
			t.Errorf("%s: GET → PUT changed the endpoint: runs %s → %s, GET %s → %s", name, before, after, get1, get2)
		}
	}
}

// TestApplyConfigSurvivesRestart: every revision runs the same bounds
// after a restart as before it — including one ApplyConfig installed
// over an endpoint whose earlier documents it must not inherit from,
// and a rollout whose partial override it must — and a rollback after
// the restart returns to the bounds the rolled-back-to revision ran.
func TestApplyConfigSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job, _ := runJob(t, svc)
	ep, err := svc.CreateEndpoint("kept", job.ID(), EndpointOptions{
		Serving: ServingConfig{Shards: 1, QueueDepth: 128},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Rollout(job.ID(), RolloutOptions{CanaryPercent: 50, Serving: ServingConfig{BatchSize: 32}}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Promote(); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.ApplyConfig(ServingConfig{BatchSize: 16}); err != nil {
		t.Fatal(err)
	}
	live := revisionBounds(ep)
	if len(live) != 3 || !strings.Contains(live[2], "shards=1 batch=32 queue=128") {
		t.Fatalf("the rollout must inherit the endpoint's shards and queue: %v", live)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	ep2, ok := svc2.Endpoint("kept")
	if !ok {
		t.Fatal("endpoint not restored")
	}
	if restored := revisionBounds(ep2); fmt.Sprint(restored) != fmt.Sprint(live) {
		t.Fatalf("bounds changed across restart:\n  live     %v\n  restored %v", live, restored)
	}
	got, _ := ep2.ServingConfig().Canonical()
	if want, _ := ep.ServingConfig().Canonical(); !bytes.Equal(got, want) {
		t.Fatalf("GET changed across restart: %s, was %s", got, want)
	}
	if err := ep2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if id, _, _, _ := ep2.View(); id != 2 || revisionBounds(ep2)[2] != live[2] {
		t.Fatalf("rollback after restart: stable %d runs %s, want 2 running %s", id, revisionBounds(ep2)[2], live[2])
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

// configSeeds lists the serving documents of the checked-in manifests
// (version-1 flat records and version-2 documents) and the tuner's
// coarse grid: every spelling the product has written or emits.
func configSeeds(t testing.TB) [][]byte {
	var out [][]byte
	for _, name := range []string{"endpoints_v1.json", "endpoints_v2.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		var m struct {
			Endpoints []struct {
				Options   json.RawMessage
				Revisions []struct{ Options json.RawMessage }
			}
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Fatal(err)
		}
		for _, e := range m.Endpoints {
			out = append(out, e.Options)
			for _, r := range e.Revisions {
				out = append(out, r.Options)
			}
		}
	}
	for _, c := range tune.CoarseGrid(4) {
		raw, err := c.Canonical()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// FuzzServingConfig fuzzes the serving-config decoder, the one reader
// of the document from the wire, the CLI and the manifest. Arbitrary
// bytes must never panic it; an accepted document must render
// canonically to a fixed point, resolve idempotently without changing
// its flush policy (GET → PUT is the identity), and inherit over any
// other accepted document into a valid one (a rollout's override).
func FuzzServingConfig(f *testing.F) {
	seeds := configSeeds(f)
	for i, s := range seeds {
		f.Add(s, seeds[(i+1)%len(seeds)])
	}
	f.Add([]byte(`{}`), []byte(`{"max_delay_ns":-1,"retain_retired":-1}`))
	f.Add([]byte(`{"adaptive_flush":true}`), []byte(`null`))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		c, err := ParseServingConfig(a)
		if err != nil {
			return
		}
		canon, err := c.Canonical()
		if err != nil {
			t.Fatalf("accepted %q but cannot render it: %v", a, err)
		}
		back, err := ParseServingConfig(canon)
		if err != nil {
			t.Fatalf("canonical %s does not parse: %v", canon, err)
		}
		if again, _ := back.Canonical(); !bytes.Equal(again, canon) {
			t.Fatalf("canonical form is not a fixed point: %s → %s", canon, again)
		}
		r := c.Resolved()
		once, err := r.Canonical()
		if err != nil {
			t.Fatalf("%s resolves to an invalid document: %v", canon, err)
		}
		if twice, _ := r.Resolved().Canonical(); !bytes.Equal(once, twice) {
			t.Fatalf("Resolved is not idempotent: %s → %s", once, twice)
		}
		p1, d1 := c.Flush()
		if p2, d2 := r.Flush(); p1 != p2 || d1 != d2 {
			t.Fatalf("resolving %s changed its flush policy: %v/%v → %v/%v", canon, p1, d1, p2, d2)
		}
		if base, err := ParseServingConfig(b); err == nil {
			if err := c.Inherit(base).Validate(); err != nil {
				t.Fatalf("%s over %q is invalid: %v", canon, b, err)
			}
		}
	})
}
