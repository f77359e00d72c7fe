package main

import (
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"
	"repro/internal/ir"
	"repro/internal/synth/nslkdd"

	homunculus "repro"
)

func TestRunTaurusSpec(t *testing.T) {
	out := t.TempDir()
	if err := run(context.Background(), "testdata/ad.json", out, "", 0); err != nil {
		t.Fatal(err)
	}
	code, err := os.ReadFile(filepath.Join(out, "anomaly_detection.spatial"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(code), "@spatial") {
		t.Fatal("generated code must be Spatial")
	}
	f, err := os.Open(filepath.Join(out, "anomaly_detection.model.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := ir.ReadJSON(f)
	if err != nil {
		t.Fatal(err)
	}
	if m.Kind != ir.DNN || m.Inputs != 7 {
		t.Fatalf("persisted model wrong: %v %d", m.Kind, m.Inputs)
	}
}

func TestRunTofinoSpec(t *testing.T) {
	out := t.TempDir()
	if err := run(context.Background(), "testdata/tc_tofino.json", out, "", 0); err != nil {
		t.Fatal(err)
	}
	code, err := os.ReadFile(filepath.Join(out, "traffic_class.p4"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(code), "v1model") {
		t.Fatal("generated code must be P4")
	}
}

func TestRunCSVSpec(t *testing.T) {
	dir := t.TempDir()
	// Write a small CSV dataset pair.
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 800
	train, test, err := nslkdd.TrainTest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trainF, err := os.Create(filepath.Join(dir, "train.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := train.WriteCSV(trainF); err != nil {
		t.Fatal(err)
	}
	trainF.Close()
	testF, err := os.Create(filepath.Join(dir, "test.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := test.WriteCSV(testF); err != nil {
		t.Fatal(err)
	}
	testF.Close()

	spec := `{
	  "name": "csv_pipeline",
	  "algorithms": ["dtree"],
	  "data": {"train_csv": "train.csv", "test_csv": "test.csv"},
	  "platform": {"kind": "taurus"},
	  "search": {"init": 3, "iterations": 3, "seed": 4}
	}`
	specPath := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	if err := run(context.Background(), specPath, out, "", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "csv_pipeline.spatial")); err != nil {
		t.Fatal("code artifact missing")
	}
}

func TestRunSpecErrors(t *testing.T) {
	out := t.TempDir()
	if err := run(context.Background(), "testdata/does_not_exist.json", out, "", 0); err == nil {
		t.Fatal("missing spec must fail")
	}
	dir := t.TempDir()
	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte("not json"), 0o644)
	if err := run(context.Background(), badPath, out, "", 0); err == nil {
		t.Fatal("garbage spec must fail")
	}
	noName := filepath.Join(dir, "noname.json")
	os.WriteFile(noName, []byte(`{"data": {"generator": "nslkdd"}}`), 0o644)
	if err := run(context.Background(), noName, out, "", 0); err == nil {
		t.Fatal("nameless spec must fail")
	}
	badGen := filepath.Join(dir, "badgen.json")
	os.WriteFile(badGen, []byte(`{"name": "x", "data": {"generator": "zzz"}}`), 0o644)
	if err := run(context.Background(), badGen, out, "", 0); err == nil {
		t.Fatal("unknown generator must fail")
	}
	badPlat := filepath.Join(dir, "badplat.json")
	os.WriteFile(badPlat, []byte(`{"name": "x", "data": {"generator": "nslkdd"}, "platform": {"kind": "abacus"}}`), 0o644)
	if err := run(context.Background(), badPlat, out, "", 0); err == nil {
		t.Fatal("unknown platform must fail")
	}
}

// TestRunPlatformAllSweep drives the acceptance scenario: -platform all
// compiles one spec against every registered backend and writes an
// artifact per deployable target (taurus and fpga here; tofino prunes
// the DNN and stays undeployable).
func TestRunPlatformAllSweep(t *testing.T) {
	out := t.TempDir()
	if err := run(context.Background(), "testdata/ad.json", out, "all", 0); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"anomaly_detection.taurus.spatial", "anomaly_detection.fpga.spatial"} {
		if _, err := os.Stat(filepath.Join(out, want)); err != nil {
			t.Fatalf("sweep artifact %s missing: %v", want, err)
		}
	}
	if _, err := os.Stat(filepath.Join(out, "anomaly_detection.tofino.p4")); err == nil {
		t.Fatal("tofino cannot host a DNN; no artifact expected")
	}
}

// TestRunPlatformOverride: -platform swaps the spec's declared kind.
func TestRunPlatformOverride(t *testing.T) {
	out := t.TempDir()
	if err := run(context.Background(), "testdata/tc_tofino.json", out, "taurus", 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "traffic_class.spatial")); err != nil {
		t.Fatal("override to taurus must emit Spatial")
	}
}

// TestRunTimeout: a hopeless deadline must abort with a context error
// instead of compiling.
func TestRunTimeout(t *testing.T) {
	err := run(context.Background(), "testdata/ad.json", t.TempDir(), "", time.Nanosecond)
	if err == nil {
		t.Fatal("1ns budget must time out")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error must wrap DeadlineExceeded, got: %v", err)
	}
}

// TestUnknownPlatformListsBackends: the error for a bogus kind must name
// every registered backend.
func TestUnknownPlatformListsBackends(t *testing.T) {
	dir := t.TempDir()
	badPlat := filepath.Join(dir, "badplat.json")
	os.WriteFile(badPlat, []byte(`{"name": "x", "data": {"generator": "nslkdd"}, "platform": {"kind": "abacus"}}`), 0o644)
	err := run(context.Background(), badPlat, t.TempDir(), "", 0)
	if err == nil {
		t.Fatal("unknown platform must fail")
	}
	for _, name := range []string{"taurus", "tofino", "fpga"} {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error must list %q, got: %v", name, err)
		}
	}
}

func TestBuildLoaderValidation(t *testing.T) {
	if _, err := buildLoader(DataSpec{TrainCSV: "a.csv"}, "."); err == nil {
		t.Fatal("half a CSV pair must fail")
	}
	if _, err := buildLoader(DataSpec{}, "."); err == nil {
		t.Fatal("empty data spec must fail")
	}
}

// TestRunDeployReplay drives the -deploy/-replay leg: compile the AD
// spec, deploy it in-process, and replay a cycled test-split trace.
func TestRunDeployReplay(t *testing.T) {
	replayCfg = replaySettings{deploy: true, samples: 500, clients: 4, batch: 16}
	defer func() { replayCfg = replaySettings{} }()
	if err := run(context.Background(), "testdata/ad.json", t.TempDir(), "", 0); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeployBurstReplay drives the -burst open-loop leg: the pacer
// calibrates a mean rate, offers the trace with 100× spikes against a
// deliberately tiny ring, and the report accounts for every offered
// request (delivered + shed + errors) with the offered rate populated.
func TestRunDeployBurstReplay(t *testing.T) {
	replayCfg = replaySettings{
		deploy: true, samples: 500, clients: 8, batch: 16,
		queue: 2, burst: true,
	}
	defer func() { replayCfg = replaySettings{}; lastReplayReport = nil }()
	if err := run(context.Background(), "testdata/ad.json", t.TempDir(), "", 0); err != nil {
		t.Fatal(err)
	}
	rep := lastReplayReport
	if rep == nil {
		t.Fatal("burst replay left no report")
	}
	res := rep.result
	if res.Issued != 500 || res.Delivered+res.Dropped+res.Errors != res.Issued {
		t.Fatalf("burst accounting: %+v", res)
	}
	if res.OfferedRate <= 0 {
		t.Fatalf("burst replay must report the offered rate: %+v", res)
	}
	if rep.final.Accepted != rep.final.Completed {
		t.Fatalf("accepted traffic must drain: %+v", rep.final)
	}
}

// TestRunEndpointCanaryZeroByteIdentical is the acceptance criterion: a
// fixed-seed replay served with a live 0%-canary rollout sitting in the
// endpoint's table must produce byte-identical classifications to the
// plain -deploy replay (no rollout), with nothing dropped.
func TestRunEndpointCanaryZeroByteIdentical(t *testing.T) {
	defer func() { replayCfg = replaySettings{}; lastReplayReport = nil }()

	// Plain -deploy replay: the endpoint named "replay", no rollout.
	replayCfg = replaySettings{deploy: true, samples: 400, clients: 4, batch: 16}
	if err := run(context.Background(), "testdata/ad.json", t.TempDir(), "", 0); err != nil {
		t.Fatal(err)
	}
	flat := lastReplayReport
	if flat == nil || flat.digest == "" || flat.endpoint == nil || flat.endpoint.Name != "replay" || len(flat.endpoint.Revisions) != 1 {
		t.Fatalf("flat replay report: %+v", flat)
	}
	if flat.result.Dropped != 0 || flat.final.Accepted != flat.final.Completed {
		t.Fatalf("flat replay dropped traffic: %+v", flat.final)
	}

	// The same spec through an endpoint with a mid-replay 0% canary
	// rollout (recompiled at seed+1, routed no traffic).
	replayCfg = replaySettings{
		deploy: true, samples: 400, clients: 4, batch: 16,
		endpoint: "ad", rollout: true, canary: 0,
	}
	if err := run(context.Background(), "testdata/ad.json", t.TempDir(), "", 0); err != nil {
		t.Fatal(err)
	}
	ep := lastReplayReport
	if ep == nil || ep.endpoint == nil {
		t.Fatalf("endpoint replay report: %+v", ep)
	}
	if ep.digest != flat.digest {
		t.Fatalf("0%%-canary endpoint replay diverged from the flat path:\n  flat:     %s\n  endpoint: %s", flat.digest, ep.digest)
	}
	if ep.result.Dropped != 0 || ep.final.Accepted != ep.final.Completed {
		t.Fatalf("endpoint replay dropped traffic: %+v", ep.final)
	}
	if len(ep.endpoint.Revisions) != 2 {
		t.Fatalf("rollout revision missing: %+v", ep.endpoint.Revisions)
	}
	if ep.endpoint.Revisions[1].Stats.Accepted != 0 {
		t.Fatalf("0%% canary revision served traffic: %+v", ep.endpoint.Revisions[1])
	}
}

// TestRunEndpointPromoteMidReplay is the second acceptance leg: a
// mid-replay Promote completes with dropped == 0 and accepted ==
// completed in the final stats.
func TestRunEndpointPromoteMidReplay(t *testing.T) {
	defer func() { replayCfg = replaySettings{}; lastReplayReport = nil }()
	replayCfg = replaySettings{
		deploy: true, samples: 400, clients: 4, batch: 16,
		endpoint: "ad", rollout: true, canary: 25, promote: true,
	}
	if err := run(context.Background(), "testdata/ad.json", t.TempDir(), "", 0); err != nil {
		t.Fatal(err)
	}
	rep := lastReplayReport
	if rep == nil || rep.endpoint == nil {
		t.Fatalf("replay report: %+v", rep)
	}
	if rep.result.Dropped != 0 {
		t.Fatalf("mid-replay promote dropped %d requests", rep.result.Dropped)
	}
	if rep.final.Dropped != 0 || rep.final.Accepted != rep.final.Completed {
		t.Fatalf("final stats after promote: %+v", rep.final)
	}
	// After promote, revision 2 is stable and revision 1 retired.
	revs := rep.endpoint.Revisions
	if len(revs) != 2 || revs[1].State != "stable" || revs[0].State != "retired" {
		t.Fatalf("post-promote revision states: %+v", revs)
	}
	if revs[1].Stats.Completed == 0 {
		t.Fatalf("promoted revision never served: %+v", revs[1])
	}
}

// TestRunEndpointShadowReplay: a mid-replay shadow rollout mirrors
// traffic and fills the divergence report without touching the answers.
func TestRunEndpointShadowReplay(t *testing.T) {
	defer func() { replayCfg = replaySettings{}; lastReplayReport = nil }()
	replayCfg = replaySettings{
		deploy: true, samples: 400, clients: 4, batch: 16,
		endpoint: "ad", rollout: true, shadow: true,
	}
	if err := run(context.Background(), "testdata/ad.json", t.TempDir(), "", 0); err != nil {
		t.Fatal(err)
	}
	rep := lastReplayReport
	if rep == nil || rep.endpoint == nil || rep.endpoint.Shadow == nil {
		t.Fatalf("shadow replay report: %+v", rep)
	}
	d := rep.endpoint.Shadow
	if d.Mirrored == 0 {
		t.Fatalf("shadow never scored: %+v", d)
	}
	if d.Agreed+d.Disagreed+d.Errors != d.Mirrored {
		t.Fatalf("divergence accounting: %+v", d)
	}
	if rep.result.Dropped != 0 {
		t.Fatalf("shadow rollout dropped primary traffic: %+v", rep.result)
	}
}

// TestReplaySettingsValidate pins the lifecycle flag contract.
func TestReplaySettingsValidate(t *testing.T) {
	for _, bad := range []replaySettings{
		{rollout: true},
		{canary: 10},
		{promote: true},
		{endpoint: "x", canary: 101},
		{endpoint: "x", rollout: true, shadow: true, canary: 10},
		{endpoint: "x", rollout: true, promote: true, rollback: true},
		{endpoint: "x", promote: true},
		{endpoint: "x", canary: 25},
		{endpoint: "x", shadow: true},
	} {
		if err := bad.validate(); err == nil {
			t.Fatalf("settings %+v must be rejected", bad)
		}
	}
	for _, ok := range []replaySettings{
		{},
		{deploy: true},
		{endpoint: "x"},
		{endpoint: "x", rollout: true, canary: 50, promote: true},
		{endpoint: "x", rollout: true, shadow: true, rollback: true},
	} {
		if err := ok.validate(); err != nil {
			t.Fatalf("settings %+v must be accepted: %v", ok, err)
		}
	}
}

// TestRunDeployRejectsSweep: -deploy only makes sense for one target.
func TestRunDeployRejectsSweep(t *testing.T) {
	replayCfg = replaySettings{deploy: true}
	defer func() { replayCfg = replaySettings{} }()
	if err := run(context.Background(), "testdata/ad.json", t.TempDir(), "all", 0); err == nil {
		t.Fatal("-deploy with -platform all must fail")
	}
}

// TestRunRemote drives the -remote client path against an in-process
// daemon: submit over the retrying client, poll to done, write the code
// artifact; an identical resubmission is a warm cache hit.
func TestRunRemote(t *testing.T) {
	httpapi.RegisterBuiltinLoaders()
	svc := homunculus.New(homunculus.ServiceOptions{MaxInFlight: 2})
	defer svc.Close()
	srv := httptest.NewServer(httpapi.NewServer(svc))
	defer srv.Close()

	dir := t.TempDir()
	specPath := filepath.Join(dir, "spec.json")
	spec := `{
	  "name": "remote_ad",
	  "metric": "f1",
	  "algorithms": ["dnn"],
	  "data": {"generator": "nslkdd"},
	  "platform": {"kind": "taurus", "throughput_gpkts": 1,
	               "latency_ns": 500, "rows": 16, "cols": 16},
	  "search": {"init": 3, "iterations": 3, "epochs": 5,
	             "max_layers": 2, "max_neurons": 12, "seed": 1}
	}`
	if err := os.WriteFile(specPath, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	for pass := 1; pass <= 2; pass++ {
		if err := runRemote(context.Background(), specPath, out, "", srv.URL, 0); err != nil {
			t.Fatalf("pass %d: %v", pass, err)
		}
	}
	code, err := os.ReadFile(filepath.Join(out, "remote_ad.spatial"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(code), "@spatial") {
		t.Fatal("remote artifact must be Spatial source")
	}
	// The second identical submission must have coalesced server-side.
	jobs := svc.Jobs()
	if len(jobs) != 2 || !jobs[1].Status().CacheHit {
		t.Fatalf("second identical remote submission must be a cache hit (%d jobs)", len(jobs))
	}
}

// TestRunRemoteRejectsLocalOnlySpecs pins the -remote restrictions: CSV
// data, samples/seed overrides, sweeps, and dataset-less specs cannot be
// shipped to a daemon.
func TestRunRemoteRejectsLocalOnlySpecs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct{ name, body, override string }{
		{"csv.json", `{"name":"x","data":{"train_csv":"a.csv","test_csv":"b.csv"},"platform":{"kind":"taurus"}}`, ""},
		{"samples.json", `{"name":"x","data":{"generator":"nslkdd","samples":500},"platform":{"kind":"taurus"}}`, ""},
		{"seed.json", `{"name":"x","data":{"generator":"nslkdd","seed":3},"platform":{"kind":"taurus"}}`, ""},
		{"nogen.json", `{"name":"x","data":{},"platform":{"kind":"taurus"}}`, ""},
		{"sweep.json", `{"name":"x","data":{"generator":"nslkdd"},"platform":{"kind":"taurus"}}`, "all"},
	} {
		p := write(tc.name, tc.body)
		if err := runRemote(context.Background(), p, t.TempDir(), tc.override, "http://127.0.0.1:1", 0); err == nil {
			t.Fatalf("%s must be rejected before any network traffic", tc.name)
		}
	}
}

// TestBuildTraceBotnet: the botnet trace is the per-packet stream, and
// -replay cycles it to the requested length.
func TestBuildTraceBotnet(t *testing.T) {
	xs, labels, err := buildTrace(Spec{Data: DataSpec{Generator: "botnet", Samples: 40, Seed: 2}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(xs) == 0 || len(xs) != len(labels) {
		t.Fatalf("trace %d/%d", len(xs), len(labels))
	}
	if got := len(xs[0]); got != 30 {
		t.Fatalf("flowmarker width %d, want 30", got)
	}
	cycled, cl, err := buildTrace(Spec{Data: DataSpec{Generator: "botnet", Samples: 40, Seed: 2}}, nil, 17)
	if err != nil {
		t.Fatal(err)
	}
	if len(cycled) != 17 || len(cl) != 17 {
		t.Fatalf("cycled trace %d/%d, want 17", len(cycled), len(cl))
	}
}
