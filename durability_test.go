package homunculus

// In-process tests for the durable service: artifact read/write-through,
// journal recovery of interrupted jobs, endpoint restoration from the
// manifest, and graceful degradation under injected store faults. The
// cross-process crash tests (SIGKILL against a real daemon) live in
// crash_test.go.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/alchemy"
	"repro/internal/parallel"
	"repro/internal/store"
)

// durableLoaderName is the catalog name the durability tests submit
// under — journal recovery needs a spec with a wire form, which means
// catalog (named) data loaders.
const durableLoaderName = "durable_test_ds"

func durablePlatform(t testing.TB) *alchemy.Platform {
	t.Helper()
	if !alchemy.LoaderRegistered(durableLoaderName) {
		alchemy.RegisterLoader(durableLoaderName, sampleLoader(11))
	}
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "durable_app", Algorithms: []string{"dtree"},
		DataLoader: alchemy.NamedLoader(durableLoaderName)})
	p := alchemy.Taurus()
	p.Schedule(model)
	return p
}

// mustOpen opens a durable service over dir and fails the test on error.
func mustOpen(t testing.TB, dir string, fs store.FS) *Service {
	t.Helper()
	svc, err := Open(ServiceOptions{MaxInFlight: 2, StateDir: dir, StateFS: fs})
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return svc
}

// runJob submits the durable platform and waits for its pipeline.
func runJob(t testing.TB, svc *Service) (*Job, *Pipeline) {
	t.Helper()
	job, err := svc.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	pipe, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	return job, pipe
}

func TestDurableResubmitAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job1, pipe1 := runJob(t, svc)
	raw1, err := MarshalPipeline(pipe1)
	if err != nil {
		t.Fatal(err)
	}
	hash1 := job1.Status().SpecHash
	if hash1 == "" {
		t.Fatal("durable job has no spec hash")
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Same state dir, new process-equivalent: the identical submission
	// must resolve from the artifact store — warm hit, zero search
	// events, byte-identical pipeline document.
	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	rep := svc2.Recovery()
	if len(rep.JobsRecovered) != 1 || rep.JobsRecovered[0] != job1.ID() {
		t.Fatalf("recovery report: %+v", rep)
	}
	if len(rep.JobsRequeued) != 0 {
		t.Fatalf("a completed job must not re-run: %+v", rep)
	}
	job2, err := svc2.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	pipe2, err := job2.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := job2.Status()
	if !st.CacheHit {
		t.Fatal("resubmission after restart must be a cache hit")
	}
	if st.SpecHash != hash1 {
		t.Fatalf("spec hash changed across restart: %s vs %s", st.SpecHash, hash1)
	}
	if len(st.Stages) != 0 {
		t.Fatalf("warm hit must emit no pipeline events, got %v", st.Stages)
	}
	raw2, err := MarshalPipeline(pipe2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("recovered pipeline is not byte-identical to the original")
	}
	// New jobs must number past the journaled history.
	if job2.ID() == job1.ID() {
		t.Fatalf("job ID collision across restart: %s", job2.ID())
	}
	if svc2.StoreErrors() != 0 {
		t.Fatalf("clean restart absorbed %d store errors", svc2.StoreErrors())
	}
}

func TestDurableInterruptedJobReruns(t *testing.T) {
	dir := t.TempDir()

	// Simulate a crash mid-job: journal an admission with no terminal
	// record, exactly what a SIGKILL between dispatch and completion
	// leaves behind.
	st, _, _, err := store.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := encodeWireJob(durablePlatform(t), &options{search: fastConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rec := store.Record{Op: store.OpSubmitted, Job: "job-000007", Platform: "taurus", WireJob: wj}
	if err := st.Journal.Append(rec, true); err != nil {
		t.Fatal(err)
	}
	if err := st.Journal.Append(store.Record{Op: store.OpRunning, Job: "job-000007"}, false); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	svc := mustOpen(t, dir, nil)
	defer svc.Close()
	rep := svc.Recovery()
	if len(rep.JobsRequeued) != 1 || rep.JobsRequeued[0] != "job-000007" {
		t.Fatalf("interrupted job not requeued: %+v", rep)
	}
	job, ok := svc.Job("job-000007")
	if !ok {
		t.Fatal("recovered job not reachable under its original ID")
	}
	pipe, err := job.Wait(context.Background())
	if err != nil {
		t.Fatalf("recovered job failed: %v", err)
	}
	if pipe == nil || len(pipe.Apps) == 0 || pipe.Apps[0].Model == nil {
		t.Fatalf("recovered job produced no model: %+v", pipe)
	}
	// Fresh submissions number past the recovered ID.
	job2, err := svc.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if job2.ID() <= "job-000007" {
		t.Fatalf("fresh job ID %s does not advance past recovered job-000007", job2.ID())
	}
	if _, err := job2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestDurableJournalCompactsOnRecovery(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	runJob(t, svc)
	runJob(t, svc) // warm-cache duplicate: two more records
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc2 := mustOpen(t, dir, nil)
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	// Both jobs completed, so recovery compacts the journal to empty.
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(bytes.TrimSpace(raw)) != 0 {
		t.Fatalf("journal not compacted after clean recovery:\n%s", raw)
	}
}

// journalTraces reads dir's journal into each job's ops, in file order.
func journalTraces(t *testing.T, dir string) map[string][]string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	traces := map[string][]string{}
	for _, line := range bytes.Split(bytes.TrimSpace(raw), []byte("\n")) {
		var rec store.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		traces[rec.Job] = append(traces[rec.Job], rec.Op)
	}
	return traces
}

// TestDurableJournalOrdersEachJob: every finished job's journal trace
// is exactly its submitted record, then its terminal op — dispatch
// writes nothing, since recovery would fold a running record like
// submitted. A warm hit finishes within
// microseconds of dispatch, so a submitted record written after the
// enqueue could land behind done — and recovery, which keeps each job's
// last op, would replay a finished job as interrupted.
func TestDurableJournalOrdersEachJob(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	const n = 100
	for i := 0; i < n; i++ {
		runJob(t, svc) // the first compiles; the rest are warm hits
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	traces := journalTraces(t, dir)
	if len(traces) != n {
		t.Fatalf("journal holds %d jobs, want %d", len(traces), n)
	}
	for id, ops := range traces {
		if strings.Join(ops, ",") != "submitted,done" {
			t.Fatalf("%s journaled %v, want submitted, done", id, ops)
		}
	}
}

// TestDurableRefusedSubmissionStaysRefused: a submission the full queue
// refuses was already journaled, so its trace is closed as failed, and
// recovery neither requeues nor reports it.
func TestDurableRefusedSubmissionStaysRefused(t *testing.T) {
	dir := t.TempDir()
	svc, err := Open(ServiceOptions{MaxInFlight: 1, QueueDepth: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	release, started := make(chan struct{}), make(chan struct{})
	hold := alchemy.NewModel(alchemy.ModelSpec{
		Name: "hold", Algorithms: []string{"dtree"}, DataLoader: blockingLoader(40, started, release)})
	p := alchemy.Taurus()
	p.Schedule(hold)
	if _, err := svc.Submit(context.Background(), p, WithSearchConfig(fastConfig())); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := svc.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig())); err != nil {
		t.Fatalf("backlog submission must be admitted: %v", err)
	}
	if _, err := svc.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig())); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submission = %v, want ErrQueueFull", err)
	}
	close(release)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if ops := journalTraces(t, dir)["job-000003"]; strings.Join(ops, ",") != "submitted,failed" {
		t.Fatalf("refused job journaled %v, want submitted, failed", ops)
	}
	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	rep := svc2.Recovery()
	if len(rep.JobsRequeued) != 0 || len(rep.JobsSkipped) != 0 {
		t.Fatalf("recovery revived a job: %+v", rep)
	}
	if _, ok := svc2.Job("job-000003"); ok {
		t.Fatal("refused job reachable after recovery")
	}
}

func TestDurableEndpointSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job, _ := runJob(t, svc)
	ep, err := svc.CreateEndpoint("detector", job.ID(), EndpointOptions{Serving: ServingConfig{BatchSize: 8, MaxDelayNS: new(int64)}})
	if err != nil {
		t.Fatal(err)
	}
	probe := [][]float64{{1.4, -0.9, 0.1}, {0.1, 0.2, -1.2}, {2.0, -1.5, 0.4}}
	want := make([]int, len(probe))
	for i, x := range probe {
		if want[i], err = ep.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	// A live 25% canary at crash time must come back as one.
	if _, err := ep.Rollout(job.ID(), RolloutOptions{CanaryPercent: 25}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	rep := svc2.Recovery()
	if len(rep.EndpointsRestored) != 1 || rep.EndpointsRestored[0] != "detector" {
		t.Fatalf("endpoint not restored: %+v", rep)
	}
	ep2, ok := svc2.Endpoint("detector")
	if !ok {
		t.Fatal("restored endpoint not reachable by name")
	}
	if stable, canary, pct, _ := ep2.View(); stable != 1 || canary != 2 || pct != 25 {
		t.Fatalf("restored routing: stable %d canary %d pct %d", stable, canary, pct)
	}
	// The canary serves the same model, so every class must match the
	// pre-crash answers bit-for-bit regardless of routing.
	for i, x := range probe {
		got, err := ep2.Classify(x)
		if err != nil || got != want[i] {
			t.Fatalf("restored endpoint diverges on %v: %d vs %d (%v)", x, got, want[i], err)
		}
	}
	// Revision metadata survives: job ID, app, lifecycle state.
	revs := ep2.Revisions()
	if len(revs) != 2 || revs[0].JobID != job.ID() || revs[0].App != "durable_app" {
		t.Fatalf("restored revisions: %+v", revs)
	}
	// The lifecycle keeps working after restore.
	if err := ep2.Promote(); err != nil {
		t.Fatal(err)
	}
	if stable, _, _, _ := ep2.View(); stable != 2 {
		t.Fatalf("promote after restore: stable %d", stable)
	}
}

// TestDurableAbortedRolloutStaysOffRollbackStack: an aborted canary
// retires without joining the rollback stack, and a restart must not put
// it there — the restored endpoint refuses Rollback exactly as the live
// one did. A version-3 manifest, which did not record the stack, is still
// read with every retired revision on it in ID order, exactly as the
// version-3 service read it: a later Promote pushes the stable above the
// aborted revision, so Rollback returns to the stable first — also after
// a restart, when the version-4 rewrite of the file is read.
func TestDurableAbortedRolloutStaysOffRollbackStack(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job, pipe := runJob(t, svc)
	ep, err := svc.CreateEndpoint("aborted", job.ID(), EndpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Rollout(job.ID(), RolloutOptions{CanaryPercent: 25}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("live rollback after the abort: %v, want ErrNoRollback", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := mustOpen(t, dir, nil)
	ep2 := mustEndpoint(t, svc2, "aborted")
	if revs := ep2.Revisions(); len(revs) != 2 || revs[1].State != "retired" || revs[1].Rollback != 0 {
		t.Fatalf("restored revisions: %+v", revs)
	}
	if err := ep2.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("restored rollback after the abort: %v, want ErrNoRollback", err)
	}
	if stable, _, _, _ := ep2.View(); stable != 1 {
		t.Fatalf("restored stable: %d", stable)
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "endpoints.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	v3 := bytes.Replace(raw, []byte(`"version": 4`), []byte(`"version": 3`), 1)
	if bytes.Equal(v3, raw) {
		t.Fatalf("manifest is not version 4:\n%s", raw)
	}
	if err := os.WriteFile(path, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	svc3 := mustOpen(t, dir, nil)
	ep3 := mustEndpoint(t, svc3, "aborted")
	if revs := ep3.Revisions(); len(revs) != 2 || revs[1].Rollback == 0 {
		t.Fatalf("version-3 restore must stack the retired revision: %+v", revs)
	}
	if _, err := ep3.RolloutPipeline(pipe, RolloutOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := ep3.Promote(); err != nil {
		t.Fatal(err)
	}
	if err := svc3.Close(); err != nil {
		t.Fatal(err)
	}

	svc4 := mustOpen(t, dir, nil)
	defer svc4.Close()
	ep4 := mustEndpoint(t, svc4, "aborted")
	for _, want := range []int{1, 2} {
		if err := ep4.Rollback(); err != nil {
			t.Fatalf("rollback to %d: %v", want, err)
		}
		if stable, _, _, _ := ep4.View(); stable != want {
			t.Fatalf("rollback after the version-3 restore: stable %d, want %d", stable, want)
		}
	}
	if err := ep4.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback past the stack: %v, want ErrNoRollback", err)
	}
}

// TestDurableRefusedRolloutStoresNoArtifact: an out-of-band pipeline is
// stored under its content hash only once its revision is installed, so
// a refused rollout leaves the artifact store as it was.
func TestDurableRefusedRolloutStoresNoArtifact(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	defer svc.Close()
	job, pipe := runJob(t, svc)
	ep, err := svc.CreateEndpoint("refused", job.ID(), EndpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	artifacts := func() int {
		t.Helper()
		entries, err := os.ReadDir(filepath.Join(dir, "artifacts"))
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	before := artifacts()
	if _, err := ep.Rollout(job.ID(), RolloutOptions{CanaryPercent: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.RolloutPipeline(pipe, RolloutOptions{}); !errors.Is(err, ErrRolloutActive) {
		t.Fatalf("second rollout: %v, want ErrRolloutActive", err)
	}
	if _, err := ep.RolloutPipeline(pipe, RolloutOptions{CanaryPercent: 101}); err == nil {
		t.Fatal("rollout with a 101% canary accepted")
	}
	if n := artifacts(); n != before {
		t.Fatalf("refused rollouts wrote %d artifacts", n-before)
	}
	if err := ep.Rollback(); err != nil {
		t.Fatal(err)
	}
	rev, err := ep.RolloutPipeline(pipe, RolloutOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := artifacts(); n != before+1 || rev.Artifact == "" {
		t.Fatalf("installed out-of-band rollout: %d new artifacts, key %q", n-before, rev.Artifact)
	}
	if n := svc.StoreErrors(); n != 0 {
		t.Fatalf("%d store errors", n)
	}
}

// seedManifest compiles one job into a fresh state dir, closes the
// service, and writes manifest (its SPEC_HASH placeholders replaced by
// the job's artifact key) as the dir's endpoints.json.
func seedManifest(t *testing.T, manifest []byte) string {
	t.Helper()
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job, _ := runJob(t, svc)
	hash := job.Status().SpecHash
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	manifest = bytes.ReplaceAll(manifest, []byte("SPEC_HASH"), []byte(hash))
	if err := os.WriteFile(filepath.Join(dir, "endpoints.json"), manifest, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestDurableManifestV1Restores: testdata/endpoints_v1.json is a manifest
// the version-1 service wrote. Every endpoint restores with the flush
// behaviour it ran with — in particular a positive flat max_delay_ns,
// which never engaged a hold, reads back absent — and the next save
// rewrites the file as version 4.
func TestDurableManifestV1Restores(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "endpoints_v1.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := seedManifest(t, fixture)
	svc := mustOpen(t, dir, nil)
	defer svc.Close()
	if rep := svc.Recovery(); len(rep.EndpointsRestored) != 4 || len(rep.EndpointsSkipped) != 0 || svc.StoreErrors() != 0 {
		t.Fatalf("v1 restore: %+v, %d store errors", rep, svc.StoreErrors())
	}
	ns := func(v int64) *int64 { return &v }
	for name, want := range map[string]ServingConfig{
		"set-zero":      {BatchSize: 8, MaxDelayNS: ns(0)},
		"set-value":     {BatchSize: 16, MaxDelayNS: ns(300000), AdaptiveFlush: true},
		"flat-negative": {BatchSize: 8, MaxDelayNS: ns(-1)},
		"flat-positive": {BatchSize: 8, QueueDepth: 64},
	} {
		ep, ok := svc.Endpoint(name)
		if !ok {
			t.Fatalf("%s not restored", name)
		}
		got, _ := ep.RevisionConfigs()[1].Canonical()
		exp, _ := want.Canonical()
		if string(got) != string(exp) {
			t.Fatalf("%s: revision 1 config %s, want %s", name, got, exp)
		}
		if _, err := ep.Classify([]float64{1.4, -0.9, 0.1}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	ep, _ := svc.Endpoint("flat-positive")
	if _, canary, pct, _ := ep.View(); canary != 2 || pct != 25 {
		t.Fatalf("flat-positive routing: canary %d at %d%%", canary, pct)
	}
	if cfg := ep.RevisionConfigs()[2]; cfg.MaxDelayNS != nil {
		t.Fatalf("flat-positive canary must restore greedy, got max_delay_ns %d", *cfg.MaxDelayNS)
	}

	if err := ep.Promote(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "endpoints.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"version": 4`)) || bytes.Contains(raw, []byte("max_delay_set")) {
		t.Fatalf("manifest not rewritten as version 4:\n%s", raw)
	}
}

// FuzzRestoreManifest fuzzes boot recovery's manifest reader: the fuzzed
// bytes become endpoints.json in a fresh state directory whose artifact
// store holds one compiled pipeline (the literal SPEC_HASH in the input
// names its key), and Open must come back without panicking or hanging.
// A manifest that does not load restores nothing and counts a store
// error; otherwise every record is either restored or skipped with a
// store error, every restored endpoint's documents re-parse through
// ParseServingConfig to themselves, only retired revisions hold rollback
// places, and Rollback walks the stack — aborting the rollout, then
// always returning to the highest place — until refused. Seeds: the
// version-1 and version-2 fixtures, a version-4 manifest the current
// code writes, the same manifest labelled version 3, and the version-4
// manifest with hostile rollback places — on the stable, on the canary,
// shared by two retired revisions, and on a retired revision newer than
// the stable with its artifact missing and present.
func FuzzRestoreManifest(f *testing.F) {
	base := f.TempDir()
	seeder := mustOpen(f, base, nil)
	job, _ := runJob(f, seeder)
	hash := job.Status().SpecHash
	ep, err := seeder.CreateEndpoint("seed", job.ID(), EndpointOptions{Serving: ServingConfig{BatchSize: 8, QueueDepth: 64}})
	if err != nil {
		f.Fatal(err)
	}
	delay := int64(time.Millisecond)
	if _, err := ep.Rollout(job.ID(), RolloutOptions{CanaryPercent: 25, Serving: ServingConfig{MaxDelayNS: &delay}}); err != nil {
		f.Fatal(err)
	}
	if err := seeder.Close(); err != nil {
		f.Fatal(err)
	}
	artifact, err := os.ReadFile(filepath.Join(base, "artifacts", hash+".json"))
	if err != nil {
		f.Fatal(err)
	}
	v4, err := os.ReadFile(filepath.Join(base, "endpoints.json"))
	if err != nil {
		f.Fatal(err)
	}
	v4 = bytes.ReplaceAll(v4, []byte(hash), []byte("SPEC_HASH"))
	f.Add(v4)
	f.Add(bytes.Replace(v4, []byte(`"version": 4`), []byte(`"version": 3`), 1))
	retired := func(revs []store.RevisionRecord, id, place int, artifact string) []store.RevisionRecord {
		r := revs[0]
		r.ID, r.State, r.SpecHash, r.Rollback = id, "retired", artifact, place
		return append(revs, r)
	}
	for _, hostile := range []func(revs []store.RevisionRecord) []store.RevisionRecord{
		func(revs []store.RevisionRecord) []store.RevisionRecord { revs[0].Rollback = 1; return revs },
		func(revs []store.RevisionRecord) []store.RevisionRecord { revs[1].Rollback = 1; return revs },
		func(revs []store.RevisionRecord) []store.RevisionRecord {
			return retired(retired(revs, 3, 1, "SPEC_HASH"), 4, 1, "SPEC_HASH")
		},
		func(revs []store.RevisionRecord) []store.RevisionRecord { return retired(revs, 3, 1, "missing") },
		func(revs []store.RevisionRecord) []store.RevisionRecord { return retired(revs, 3, 1, "SPEC_HASH") },
	} {
		var m store.Manifest
		if err := json.Unmarshal(v4, &m); err != nil || len(m.Endpoints) != 1 || len(m.Endpoints[0].Revisions) != 2 {
			f.Fatalf("seed manifest: %v\n%s", err, v4)
		}
		m.Endpoints[0].Revisions = hostile(m.Endpoints[0].Revisions)
		raw, err := json.Marshal(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, name := range []string{"endpoints_v1.json", "endpoints_v2.json"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, manifest []byte) {
		dir := t.TempDir()
		if err := os.MkdirAll(filepath.Join(dir, "artifacts"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "artifacts", hash+".json"), artifact, 0o644); err != nil {
			t.Fatal(err)
		}
		manifest = bytes.ReplaceAll(manifest, []byte("SPEC_HASH"), []byte(hash))
		if err := os.WriteFile(filepath.Join(dir, "endpoints.json"), manifest, 0o644); err != nil {
			t.Fatal(err)
		}
		st, _, _, err := store.Open(dir, nil)
		if err != nil {
			t.Fatal(err)
		}
		m, loadErr := st.LoadManifest()
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		svc, err := Open(ServiceOptions{MaxInFlight: 1, StateDir: dir})
		if err != nil {
			// Boot recovery records a bad manifest as a store error; only
			// the manifest varies here, so a refused boot is a finding.
			t.Fatalf("Open refused a fuzzed manifest: %v", err)
		}
		defer svc.Close()
		rep := svc.Recovery()
		restored, skipped := len(rep.EndpointsRestored), len(rep.EndpointsSkipped)
		if loadErr != nil {
			if restored+skipped != 0 || svc.StoreErrors() == 0 {
				t.Fatalf("unloadable manifest (%v): restored %d, skipped %d, %d store errors", loadErr, restored, skipped, svc.StoreErrors())
			}
			return
		}
		if restored+skipped != len(m.Endpoints) || svc.StoreErrors() < uint64(skipped) {
			t.Fatalf("%d records: restored %v, skipped %v, %d store errors",
				len(m.Endpoints), rep.EndpointsRestored, rep.EndpointsSkipped, svc.StoreErrors())
		}
		for _, name := range rep.EndpointsRestored {
			ep, ok := svc.Endpoint(name)
			if !ok {
				t.Fatalf("restored endpoint %q is not reachable", name)
			}
			docs := []ServingConfig{ep.ServingConfig()}
			for _, r := range ep.Revisions() {
				docs = append(docs, r.Config)
			}
			for _, cfg := range docs {
				raw, err := cfg.Canonical()
				if err != nil {
					t.Fatalf("%s: restored config does not render: %v", name, err)
				}
				back, err := ParseServingConfig(raw)
				if err != nil {
					t.Fatalf("%s: restored config %s does not re-parse: %v", name, raw, err)
				}
				if again, _ := back.Canonical(); !bytes.Equal(again, raw) {
					t.Fatalf("%s: restored config %s re-parses as %s", name, raw, again)
				}
			}
			// Each Rollback aborts the rollout or returns to the highest
			// place, so one more than the revision count must reach a
			// refusal, and a refusal moves no traffic.
			for i := 0; ; i++ {
				stable, canary, _, shadow := ep.View()
				want, top := stable, 0
				for _, r := range ep.Revisions() {
					if r.Rollback != 0 && r.State != "retired" {
						t.Fatalf("%s: %s revision %d holds rollback place %d", name, r.State, r.ID, r.Rollback)
					}
					if canary == 0 && shadow == 0 && r.Rollback > top {
						want, top = r.ID, r.Rollback
					}
				}
				err := ep.Rollback()
				if err != nil {
					want = stable
				}
				if got, _, _, _ := ep.View(); got != want {
					t.Fatalf("%s: Rollback (%v) left stable %d, want %d", name, err, got, want)
				}
				if err != nil {
					break
				}
				if i == len(docs) {
					t.Fatalf("%s: Rollback still succeeding after %d calls", name, i+1)
				}
			}
		}
	})
}

// TestDurableManifestV2Restores: testdata/endpoints_v2.json is a manifest
// the version-2 service wrote, with partial-override rollouts and an
// ApplyConfig'd endpoint. A version-2 revision document is the rollout's
// override, so each one inherits the endpoint's document on restore —
// exactly the bounds the version-2 service restored it to, pinned here
// (for "applied", not the bounds it ran live: that service merged
// ApplyConfig's document over the old one). The next save writes version
// 4, which a second restart reads back unchanged.
func TestDurableManifestV2Restores(t *testing.T) {
	fixture, err := os.ReadFile(filepath.Join("testdata", "endpoints_v2.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := seedManifest(t, fixture)
	svc := mustOpen(t, dir, nil)
	if rep := svc.Recovery(); len(rep.EndpointsRestored) != 3 || len(rep.EndpointsSkipped) != 0 || svc.StoreErrors() != 0 {
		t.Fatalf("v2 restore: %+v, %d store errors", rep, svc.StoreErrors())
	}
	w := parallel.Workers()
	want := map[string]map[int]string{
		"applied": {
			1: "greedy/0s shards=1 batch=16 queue=128",
			2: fmt.Sprintf("greedy/0s shards=%d batch=16 queue=1024", w),
		},
		"rolled": {
			1: fmt.Sprintf("fixed/1ms shards=%d batch=8 queue=256", w),
			2: fmt.Sprintf("fixed/1ms shards=%d batch=32 queue=256", w),
			3: "greedy/0s shards=2 batch=8 queue=256",
		},
		"adaptive": {
			1: fmt.Sprintf("adaptive/500µs shards=%d batch=64 queue=1024", w),
			2: fmt.Sprintf("adaptive/500µs shards=%d batch=4 queue=1024", w),
			3: fmt.Sprintf("fixed/200µs shards=%d batch=64 queue=1024", w),
		},
	}
	check := func(svc *Service) {
		t.Helper()
		for name, revs := range want {
			ep, ok := svc.Endpoint(name)
			if !ok {
				t.Fatalf("%s not restored", name)
			}
			if got := revisionBounds(ep); fmt.Sprint(got) != fmt.Sprint(revs) {
				t.Fatalf("%s restored to\n  %v\nwant\n  %v", name, got, revs)
			}
			if _, err := ep.Classify([]float64{1.4, -0.9, 0.1}); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		if s, _, _, sh := mustEndpoint(t, svc, "rolled").View(); s != 2 || sh != 3 {
			t.Fatalf("rolled routing: stable %d shadow %d", s, sh)
		}
		if s, c, pct, _ := mustEndpoint(t, svc, "adaptive").View(); s != 2 || c != 3 || pct != 10 {
			t.Fatalf("adaptive routing: stable %d canary %d at %d%%", s, c, pct)
		}
	}
	check(svc)

	// Any lifecycle operation rewrites the manifest as version 4; its
	// effective documents restore as they are.
	if err := mustEndpoint(t, svc, "applied").Rollback(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "endpoints.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"version": 4`)) {
		t.Fatalf("manifest not rewritten as version 4:\n%s", raw)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	check(svc2)
	if s, _, _, _ := mustEndpoint(t, svc2, "applied").View(); s != 1 {
		t.Fatalf("applied rollback lost across restart: stable %d", s)
	}
}

// mustEndpoint looks up a live endpoint by name or fails the test.
func mustEndpoint(t *testing.T, svc *Service, name string) *Endpoint {
	t.Helper()
	ep, ok := svc.Endpoint(name)
	if !ok {
		t.Fatalf("no endpoint %q", name)
	}
	return ep
}

// TestDurableManifestRejectsBadConfig: the manifest is validated like the
// wire. An endpoint whose config document is out of range or unparseable
// is skipped and reported — nothing is allocated from its numbers — and
// the endpoints beside it restore.
func TestDurableManifestRejectsBadConfig(t *testing.T) {
	rev := `"stable": 1, "revisions": [{"id": 1, "app": "durable_app", "spec_hash": "SPEC_HASH", "state": "stable", "created_unix_nano": 1, "options": %s}]`
	ep := func(name, options, revOptions string) string {
		return fmt.Sprintf(`{"name": %q, "platform": "taurus", "created_unix_nano": 1, "options": %s, `+rev+`}`, name, options, revOptions)
	}
	manifest := `{"version": 2, "endpoints": [` + strings.Join([]string{
		ep("huge", `{"version":1,"shards":1000000000}`, `{"version":1}`),
		ep("good", `{"version":1,"batch_size":8}`, `{"version":1,"batch_size":8}`),
		ep("huge-rev", `{"version":1}`, `{"version":1,"queue_depth":2097152}`),
		ep("typo", `{"version":1,"batchsize":8}`, `{"version":1}`),
	}, ",") + `]}`
	dir := seedManifest(t, []byte(manifest))
	svc := mustOpen(t, dir, nil)
	defer svc.Close()
	rep := svc.Recovery()
	if len(rep.EndpointsRestored) != 1 || rep.EndpointsRestored[0] != "good" || len(rep.EndpointsSkipped) != 3 {
		t.Fatalf("recovery: %+v", rep)
	}
	if svc.StoreErrors() != 3 {
		t.Fatalf("store errors = %d, want one per skipped endpoint", svc.StoreErrors())
	}
	if got := svc.Endpoints(); len(got) != 1 || got[0].ServingConfig().BatchSize != 8 {
		t.Fatalf("live endpoints after restore: %v", got)
	}
}

func TestDurableEndpointDeletionPersists(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job, _ := runJob(t, svc)
	if _, err := svc.CreateEndpoint("ephemeral", job.ID(), EndpointOptions{Serving: ServingConfig{BatchSize: 8, MaxDelayNS: new(int64)}}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DeleteEndpoint("ephemeral"); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	if _, ok := svc2.Endpoint("ephemeral"); ok {
		t.Fatal("deleted endpoint came back after restart")
	}
}

func TestDurableStoreFaultsDegradeGracefully(t *testing.T) {
	dir := t.TempDir()
	ffs := store.NewFaultFS(nil)
	svc := mustOpen(t, dir, ffs)
	defer svc.Close()

	// Every write fails from here on (ENOSPC): journaling and artifact
	// writes break, compilation must not.
	ffs.FailWrites(0)
	_, pipe := runJob(t, svc)
	if pipe == nil || len(pipe.Apps) == 0 || pipe.Apps[0].Model == nil {
		t.Fatalf("compilation failed under store faults: %+v", pipe)
	}
	if svc.StoreErrors() == 0 {
		t.Fatal("absorbed store failures must be counted")
	}
	// Endpoints still work; persistence failures are absorbed too.
	jobs := svc.Jobs()
	ep, err := svc.CreateEndpoint("faulty", jobs[0].ID(), EndpointOptions{Serving: ServingConfig{BatchSize: 8, MaxDelayNS: new(int64)}})
	if err != nil {
		t.Fatalf("CreateEndpoint under store faults: %v", err)
	}
	if _, err := ep.Classify([]float64{1, 0, 0}); err != nil {
		t.Fatal(err)
	}

	// Heal the filesystem: subsequent work persists cleanly.
	ffs.Disarm()
	errsBefore := svc.StoreErrors()
	runJob(t, svc)
	if svc.StoreErrors() != errsBefore {
		t.Fatalf("healed store still absorbing errors: %d -> %d", errsBefore, svc.StoreErrors())
	}
}

func TestDurableCorruptArtifactRecompiles(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job1, pipe1 := runJob(t, svc)
	hash := job1.Status().SpecHash
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip bytes in the stored artifact. The digest check must catch it:
	// the entry is quarantined and the resubmission recompiles.
	path := filepath.Join(dir, "artifacts", hash+".json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := mustOpen(t, dir, nil)
	defer svc2.Close()
	job2, err := svc2.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	pipe2, err := job2.Wait(context.Background())
	if err != nil {
		t.Fatalf("recompile after corruption failed: %v", err)
	}
	if job2.Status().CacheHit {
		t.Fatal("a corrupt artifact must never be served as a cache hit")
	}
	// Deterministic pipeline: the recompile matches the original.
	raw1, _ := MarshalPipeline(pipe1)
	raw2, _ := MarshalPipeline(pipe2)
	if !bytes.Equal(raw1, raw2) {
		t.Fatal("recompiled pipeline differs from the pre-corruption original")
	}
	// The poisoned entry was quarantined, and the fresh compile rewrote
	// a clean artifact the next restart can serve.
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("corrupt artifact not quarantined: %v %v", ents, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if clean, readErr := os.ReadFile(path); readErr == nil {
			var doc map[string]any
			if json.Unmarshal(clean, &doc) == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("clean artifact was not rewritten after recompilation")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestDurableUndecodableArtifactQuarantined: an artifact whose envelope
// and digest check out but whose payload does not decode — here a model
// that fails validation — is quarantined on its first hit like a digest
// failure, the job recompiles, and the rewritten artifact serves the next
// identical submission as a clean hit.
func TestDurableUndecodableArtifactQuarantined(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	job1, pipe1 := runJob(t, svc)
	hash := job1.Status().SpecHash
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := MarshalPipeline(pipe1)
	if err != nil {
		t.Fatal(err)
	}
	bad := regexp.MustCompile(`"inputs":\d+`).ReplaceAll(raw, []byte(`"inputs":0`))
	if bytes.Equal(bad, raw) {
		t.Fatal("no model to break")
	}
	env, err := store.WrapEnvelope(hash, bad)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "artifacts", hash+".json")
	if err := os.WriteFile(path, env, 0o644); err != nil {
		t.Fatal(err)
	}

	// The memory cache is off: every submission reads the store.
	svc2, err := Open(ServiceOptions{MaxInFlight: 2, StateDir: dir, CacheEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	submit := func() JobStatus {
		t.Helper()
		job, err := svc2.Submit(context.Background(), durablePlatform(t), WithSearchConfig(fastConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return job.Status()
	}
	if st := submit(); st.CacheHit {
		t.Fatal("an artifact that does not decode was served as a cache hit")
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", hash+".json")); err != nil {
		t.Fatalf("undecodable artifact not quarantined: %v", err)
	}
	if n := svc2.StoreErrors(); n != 1 {
		t.Fatalf("StoreErrors = %d, want 1 (the quarantine)", n)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !svc2.store.Artifacts.Has(hash) {
		if time.Now().After(deadline) {
			t.Fatal("the recompile did not rewrite the artifact")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st := submit(); !st.CacheHit || len(st.Stages) != 0 {
		t.Fatalf("resubmission after the recompile: cache hit %v, stages %v", st.CacheHit, st.Stages)
	}
	if n := svc2.StoreErrors(); n != 1 {
		t.Fatalf("the clean hit absorbed store errors: %d", n)
	}
}

// TestExportArtifactRefusesNonJSON: the store checks frame and digest
// only, so a payload that passes them but is not JSON reaches
// ExportArtifact — which quarantines it instead of handing it to a peer.
func TestExportArtifactRefusesNonJSON(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)
	defer svc.Close()
	key := strings.Repeat("ab", 32)
	payload := []byte("not json")
	sum := sha256.Sum256(payload)
	env := fmt.Sprintf(`{"version":1,"spec_hash":"%s","payload_sha256":"%x","payload":%s}`+"\n", key, sum, payload)
	if err := os.WriteFile(filepath.Join(dir, "artifacts", key+".json"), []byte(env), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := svc.store.Artifacts.Get(key); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; the frame and digest are sound", got, err)
	}
	if raw, ok := svc.ExportArtifact(key); ok {
		t.Fatalf("exported %q", raw)
	}
	if _, err := os.Stat(filepath.Join(dir, "quarantine", key+".json")); err != nil {
		t.Fatalf("not quarantined: %v", err)
	}
}
