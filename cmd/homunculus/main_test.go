package main

import (
	"context"
	"errors"
	"io"
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
	if _, err := run(context.Background(), config{out: io.Discard, spec: "testdata/ad.json", outDir: out}); err != nil {
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
	if _, err := run(context.Background(), config{out: io.Discard, spec: "testdata/tc_tofino.json", outDir: out}); err != nil {
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
	if _, err := run(context.Background(), config{out: io.Discard, spec: specPath, outDir: out}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "csv_pipeline.spatial")); err != nil {
		t.Fatal("code artifact missing")
	}
}

func TestRunSpecErrors(t *testing.T) {
	out := t.TempDir()
	if _, err := run(context.Background(), config{out: io.Discard, spec: "testdata/does_not_exist.json", outDir: out}); err == nil {
		t.Fatal("missing spec must fail")
	}
	dir := t.TempDir()
	badPath := filepath.Join(dir, "bad.json")
	os.WriteFile(badPath, []byte("not json"), 0o644)
	if _, err := run(context.Background(), config{out: io.Discard, spec: badPath, outDir: out}); err == nil {
		t.Fatal("garbage spec must fail")
	}
	noName := filepath.Join(dir, "noname.json")
	os.WriteFile(noName, []byte(`{"data": {"generator": "nslkdd"}}`), 0o644)
	if _, err := run(context.Background(), config{out: io.Discard, spec: noName, outDir: out}); err == nil {
		t.Fatal("nameless spec must fail")
	}
	badGen := filepath.Join(dir, "badgen.json")
	os.WriteFile(badGen, []byte(`{"name": "x", "data": {"generator": "zzz"}}`), 0o644)
	if _, err := run(context.Background(), config{out: io.Discard, spec: badGen, outDir: out}); err == nil {
		t.Fatal("unknown generator must fail")
	}
	badPlat := filepath.Join(dir, "badplat.json")
	os.WriteFile(badPlat, []byte(`{"name": "x", "data": {"generator": "nslkdd"}, "platform": {"kind": "abacus"}}`), 0o644)
	if _, err := run(context.Background(), config{out: io.Discard, spec: badPlat, outDir: out}); err == nil {
		t.Fatal("unknown platform must fail")
	}
}

// TestRunPlatformAllSweep drives the acceptance scenario: -platform all
// compiles one spec against every registered backend and writes an
// artifact per deployable target (taurus and fpga here; tofino prunes
// the DNN and stays undeployable).
func TestRunPlatformAllSweep(t *testing.T) {
	out := t.TempDir()
	if _, err := run(context.Background(), config{out: io.Discard, spec: "testdata/ad.json", outDir: out, platform: "all"}); err != nil {
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
	if _, err := run(context.Background(), config{out: io.Discard, spec: "testdata/tc_tofino.json", outDir: out, platform: "taurus"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(out, "traffic_class.spatial")); err != nil {
		t.Fatal("override to taurus must emit Spatial")
	}
}

// TestRunTimeout: a hopeless deadline must abort with a context error
// instead of compiling.
func TestRunTimeout(t *testing.T) {
	_, err := run(context.Background(), config{out: io.Discard, spec: "testdata/ad.json", outDir: t.TempDir(), timeout: time.Nanosecond})
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
	_, err := run(context.Background(), config{out: io.Discard, spec: badPlat, outDir: t.TempDir()})
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

// adConfig is `-spec testdata/ad.json` into a fresh output directory
// with the given replay settings, its report discarded.
func adConfig(t *testing.T, r replaySettings) config {
	return config{out: io.Discard, spec: "testdata/ad.json", outDir: t.TempDir(), replay: r}
}

// TestRunDeployReplay drives the -deploy/-replay leg: compile the AD
// spec, deploy it in-process, and replay a cycled test-split trace.
func TestRunDeployReplay(t *testing.T) {
	if _, err := run(context.Background(), adConfig(t, replaySettings{deploy: true, samples: 500, clients: 4, batch: 16})); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeployBurstReplay drives the -burst open-loop leg: the pacer
// calibrates a mean rate, offers the trace with 100× spikes against a
// deliberately tiny ring, and the report accounts for every offered
// request (delivered + shed + errors) with the offered rate populated.
func TestRunDeployBurstReplay(t *testing.T) {
	got, err := run(context.Background(), adConfig(t, replaySettings{
		deploy: true, samples: 500, clients: 8, batch: 16,
		queue: 2, burst: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep := got.replay
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
	// Plain -deploy replay: the endpoint named "replay", no rollout.
	got, err := run(context.Background(), adConfig(t, replaySettings{deploy: true, samples: 400, clients: 4, batch: 16}))
	if err != nil {
		t.Fatal(err)
	}
	flat := got.replay
	if flat == nil || flat.digest == "" || flat.endpoint == nil || flat.endpoint.Name != "replay" || len(flat.endpoint.Revisions) != 1 {
		t.Fatalf("flat replay report: %+v", flat)
	}
	if flat.result.Dropped != 0 || flat.final.Accepted != flat.final.Completed {
		t.Fatalf("flat replay dropped traffic: %+v", flat.final)
	}

	// The same spec through an endpoint with a mid-replay 0% canary
	// rollout (recompiled at seed+1, routed no traffic).
	got, err = run(context.Background(), adConfig(t, replaySettings{
		deploy: true, samples: 400, clients: 4, batch: 16,
		endpoint: "ad", rollout: true, canary: 0,
	}))
	if err != nil {
		t.Fatal(err)
	}
	ep := got.replay
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
	got, err := run(context.Background(), adConfig(t, replaySettings{
		deploy: true, samples: 400, clients: 4, batch: 16,
		endpoint: "ad", rollout: true, canary: 25, promote: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep := got.replay
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
	got, err := run(context.Background(), adConfig(t, replaySettings{
		deploy: true, samples: 400, clients: 4, batch: 16,
		endpoint: "ad", rollout: true, shadow: true,
	}))
	if err != nil {
		t.Fatal(err)
	}
	rep := got.replay
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
	for _, bad := range [][]string{
		{"-rollout"},
		{"-canary", "10"},
		{"-promote"},
		{"-endpoint", "x", "-canary", "101"},
		{"-endpoint", "x", "-rollout", "-shadow", "-canary", "10"},
		{"-endpoint", "x", "-rollout", "-promote", "-rollback"},
		{"-endpoint", "x", "-promote"},
		{"-endpoint", "x", "-canary", "25"},
		{"-endpoint", "x", "-shadow"},
	} {
		if _, err := parseFlags(append([]string{"-spec", "s.json"}, bad...)); err == nil {
			t.Fatalf("flags %q must be rejected", bad)
		}
	}
	for _, ok := range [][]string{
		{},
		{"-deploy"},
		{"-endpoint", "x"},
		{"-endpoint", "x", "-rollout", "-canary", "50", "-promote"},
		{"-endpoint", "x", "-rollout", "-shadow", "-rollback"},
	} {
		if _, err := parseFlags(append([]string{"-spec", "s.json"}, ok...)); err != nil {
			t.Fatalf("flags %q must be accepted: %v", ok, err)
		}
	}
}

// TestParseFlags pins the command line's contract: which flags imply
// deployment or tuning, and which combinations are refused before any
// mode runs.
func TestParseFlags(t *testing.T) {
	deploys := func(c config) bool { return c.replay.deploy && !c.tune.enabled }
	tunes := func(c config) bool { return c.tune.enabled && !c.replay.deploy }
	plain := func(c config) bool { return !c.replay.deploy && !c.tune.enabled }
	for _, tc := range []struct {
		args   []string
		want   func(config) bool // checked when the line is accepted
		refuse string            // substring of the refusal; "" = accepted
	}{
		// Implications.
		{args: []string{"-spec", "s.json"}, want: plain},
		{args: []string{"-spec", "s.json", "-deploy"}, want: deploys},
		{args: []string{"-spec", "s.json", "-replay", "10"}, want: deploys},
		{args: []string{"-spec", "s.json", "-endpoint", "x"}, want: deploys},
		{args: []string{"-spec", "s.json", "-burst"}, want: deploys},
		{args: []string{"-spec", "s.json", "-tune"}, want: tunes},
		{args: []string{"-spec", "s.json", "-slo", "p99<=1ms"}, want: tunes},
		{args: []string{"-spec", "s.json", "-replay", "0"}, want: plain},
		{args: []string{"-validate", "-model", "m.json", "-code", "c.p4"}, want: plain},
		{args: []string{"-spec", "s.json", "-remote", "http://x", "-validate"}, want: plain},

		// Artifact inputs need -validate.
		{args: []string{"-model", "m.json"}, refuse: "add -validate"},
		{args: []string{"-code", "c.p4"}, refuse: "add -validate"},
		{args: []string{"-model", "m.json", "-code", "c.p4"}, refuse: "add -validate"},

		// -remote compiles on a daemon: no in-process deploy or tune.
		{args: []string{"-spec", "s.json", "-remote", "http://x", "-deploy"}, refuse: "-remote"},
		{args: []string{"-spec", "s.json", "-remote", "http://x", "-replay", "5"}, refuse: "-remote"},
		{args: []string{"-spec", "s.json", "-remote", "http://x", "-endpoint", "x"}, refuse: "-remote"},
		{args: []string{"-spec", "s.json", "-remote", "http://x", "-burst"}, refuse: "-remote"},
		{args: []string{"-spec", "s.json", "-remote", "http://x", "-tune"}, refuse: "/tune"},
		{args: []string{"-spec", "s.json", "-remote", "http://x", "-slo", "p99<=1ms"}, refuse: "/tune"},

		// Lifecycle conflicts.
		{args: []string{"-spec", "s.json", "-rollout"}, refuse: "require -endpoint"},
		{args: []string{"-spec", "s.json", "-canary", "10"}, refuse: "require -endpoint"},
		{args: []string{"-spec", "s.json", "-shadow"}, refuse: "require -endpoint"},
		{args: []string{"-spec", "s.json", "-promote"}, refuse: "require -endpoint"},
		{args: []string{"-spec", "s.json", "-rollback"}, refuse: "require -endpoint"},
		{args: []string{"-spec", "s.json", "-endpoint", "x", "-rollout", "-canary", "101"}, refuse: "out of [0,100]"},
		{args: []string{"-spec", "s.json", "-endpoint", "x", "-rollout", "-canary", "-1"}, refuse: "out of [0,100]"},
		{args: []string{"-spec", "s.json", "-endpoint", "x", "-rollout", "-shadow", "-canary", "10"}, refuse: "mutually exclusive"},
		{args: []string{"-spec", "s.json", "-endpoint", "x", "-rollout", "-promote", "-rollback"}, refuse: "mutually exclusive"},
		{args: []string{"-spec", "s.json", "-endpoint", "x", "-canary", "25"}, refuse: "add -rollout"},
		{args: []string{"-spec", "s.json", "-endpoint", "x", "-shadow"}, refuse: "add -rollout"},
		{args: []string{"-spec", "s.json", "-endpoint", "x", "-promote"}, refuse: "add -rollout"},
		{args: []string{"-spec", "s.json", "-endpoint", "x", "-rollback"}, refuse: "add -rollout"},
		{args: []string{"-spec", "s.json", "-adaptive", "-batch-delay", "-1ms"}, refuse: "-adaptive"},

		// Negative counts and durations.
		{args: []string{"-spec", "s.json", "-replay", "-1"}, refuse: "negative"},
		{args: []string{"-spec", "s.json", "-clients", "-2"}, refuse: "negative"},
		{args: []string{"-spec", "s.json", "-timeout", "-1s"}, refuse: "negative"},
	} {
		c, err := parseFlags(tc.args)
		switch {
		case tc.refuse == "" && err != nil:
			t.Errorf("%q refused: %v", tc.args, err)
		case tc.refuse == "" && !tc.want(c):
			t.Errorf("%q parsed to deploy=%v tune=%v", tc.args, c.replay.deploy, c.tune.enabled)
		case tc.refuse != "" && (err == nil || !strings.Contains(err.Error(), tc.refuse)):
			t.Errorf("%q: got %v, want a refusal naming %q", tc.args, err, tc.refuse)
		}
	}
}

// TestRunDeployRejectsSweep: -deploy only makes sense for one target.
func TestRunDeployRejectsSweep(t *testing.T) {
	cfg := adConfig(t, replaySettings{deploy: true})
	cfg.platform = "all"
	if _, err := run(context.Background(), cfg); err == nil {
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
		if err := runRemote(context.Background(), config{out: io.Discard, spec: specPath, outDir: out, remote: srv.URL}); err != nil {
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
		if err := runRemote(context.Background(), config{out: io.Discard, spec: p, outDir: t.TempDir(), platform: tc.override, remote: "http://127.0.0.1:1"}); err == nil {
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

// TestRunSpaceArtifactError: a design-space artifact that cannot be
// written fails the run instead of being skipped with exit status 0.
func TestRunSpaceArtifactError(t *testing.T) {
	out := t.TempDir()
	if err := os.Mkdir(filepath.Join(out, "traffic_class.space.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	_, err := run(context.Background(), config{out: io.Discard, spec: "testdata/tc_tofino.json", outDir: out})
	if err == nil || !strings.Contains(err.Error(), "design space") {
		t.Fatalf("an unwritable space artifact must fail the run, got %v", err)
	}
}

// TestCLIOutputGolden runs the deterministic modes from the command line
// through parseFlags and execute, and diffs each report with its
// testdata/golden file, where the output directory reads <out>.
func TestCLIOutputGolden(t *testing.T) {
	root := t.TempDir()
	dir := func(name string) string { return filepath.Join(root, name) }
	for _, tc := range []struct {
		golden, out string
		args        []string
	}{
		{"ad_validate.txt", dir("ad"), []string{"-spec", "testdata/ad.json", "-validate", "-out", dir("ad")}},
		{"tc_tofino.txt", dir("tc"), []string{"-spec", "testdata/tc_tofino.json", "-out", dir("tc")}},
		{"platform_all.txt", dir("all"), []string{"-spec", "testdata/ad.json", "-platform", "all", "-out", dir("all")}},
		// Validates the artifact the tc_tofino run above wrote.
		{"validate_artifact.txt", dir("tc"), []string{"-validate", "-out", dir("tc"),
			"-model", filepath.Join(dir("tc"), "traffic_class.model.json"), "-code", filepath.Join(dir("tc"), "traffic_class.p4")}},
		{"repro.txt", dir("repro"), []string{"-repro", "../../internal/validate/corpus/p4_tree_single_leaf.json"}},
	} {
		cfg, err := parseFlags(tc.args)
		if err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		var out strings.Builder
		cfg.out = &out
		if err := execute(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", tc.golden, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden))
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.ReplaceAll(out.String(), tc.out, "<out>"); got != string(want) {
			t.Errorf("%s: output differs from the golden\n--- got\n%s--- want\n%s", tc.golden, got, want)
		}
	}
}
