// Crash-point tests: build the real daemon binary, SIGKILL it mid-job
// and mid-rollout, restart it on the same -state-dir, and prove full
// recovery over the wire — interrupted compilations rerun under their
// original IDs, identical resubmissions are warm cache hits with
// byte-identical results, and restored endpoints classify bit-identically
// to their pre-crash selves. The retrying httpapi.Client is the test's
// transport, so the restart windows themselves exercise its backoff.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/httpapi"

	homunculus "repro"
)

// daemonBin is the compiled homunculusd under test (built by TestMain,
// skipped entirely under -short).
var daemonBin string

func TestMain(m *testing.M) {
	code := func() int {
		dir, err := os.MkdirTemp("", "homunculusd-bin-*")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		daemonBin = filepath.Join(dir, "homunculusd")
		build := exec.Command("go", "build", "-o", daemonBin, ".")
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "build daemon: %v\n", err)
			return 1
		}
		return m.Run()
	}()
	os.Exit(code)
}

// crashSpec is the CI-sized compilation the crash tests submit; seed
// varies per revision.
func crashSpec(seed int64) httpapi.SubmitRequest {
	raw := `{
		"kind": "taurus",
		"constraints": {"throughput_gpkts": 1, "latency_ns": 500, "rows": 16, "cols": 16},
		"schedule": {"model": {"name": "anomaly_detection", "metric": "f1",
		                       "algorithms": ["dnn"], "dataset": "nslkdd"}}
	}`
	req := httpapi.SubmitRequest{Search: &httpapi.SearchJSON{
		Init: 3, Iterations: 4, Epochs: 6, MaxLayers: 2, MaxNeurons: 12, Seed: seed,
	}}
	if err := json.Unmarshal([]byte(raw), &req.Platform); err != nil {
		panic(err)
	}
	return req
}

// daemon wraps one homunculusd process plus a retrying client on it.
type daemon struct {
	cmd    *exec.Cmd
	client *httpapi.Client
	killed bool
}

// startDaemon boots homunculusd on addr with the given state dir and
// waits for it to answer.
func startDaemon(t *testing.T, addr, stateDir string) *daemon {
	t.Helper()
	cmd := exec.Command(daemonBin, "-addr", addr, "-state-dir", stateDir, "-max-inflight", "2")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := httpapi.NewClient("http://" + addr)
	c.BaseDelay = 50 * time.Millisecond
	c.MaxAttempts = 40 // the boot window is exactly what retries are for
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Get(ctx, "/v1/backends", nil); err != nil {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		t.Fatalf("daemon on %s never answered: %v", addr, err)
	}
	return &daemon{cmd: cmd, client: c}
}

// kill SIGKILLs the daemon — no drain, no shutdown hook: the crash.
// Idempotent, so tests can both kill mid-run and defer a cleanup kill.
func (d *daemon) kill(t *testing.T) {
	t.Helper()
	if d.killed {
		return
	}
	d.killed = true
	if err := d.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	_, _ = d.cmd.Process.Wait()
}

// freeAddr reserves a loopback port for the daemon.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestCrashMidCompilationRecovers kills the daemon while a job is
// compiling (with a second job queued behind it), restarts it on the
// same state dir, and requires both interrupted jobs to rerun to
// completion under their original IDs — after which an identical
// resubmission is a warm cache hit with a byte-identical result.
func TestCrashMidCompilationRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	stateDir := t.TempDir()
	addr := freeAddr(t)
	d := startDaemon(t, addr, stateDir)
	defer d.kill(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	job1, err := d.client.SubmitJob(ctx, crashSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	job2, err := d.client.SubmitJob(ctx, crashSpec(2))
	if err != nil {
		t.Fatal(err)
	}

	// Kill as soon as the first job is observed compiling: job1 dies
	// mid-search, job2 dies queued.
	for {
		j, err := d.client.Job(ctx, job1.ID, false)
		if err != nil {
			t.Fatal(err)
		}
		if j.State == homunculus.JobRunning {
			break
		}
		if j.State != homunculus.JobQueued {
			t.Fatalf("job1 reached %s before the crash", j.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.kill(t)

	d2 := startDaemon(t, addr, stateDir)
	defer d2.kill(t)
	// Both interrupted jobs must be re-enqueued under their original IDs
	// and rerun to completion.
	for _, id := range []string{job1.ID, job2.ID} {
		final, err := d2.client.WaitJob(ctx, id, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("recovered job %s: %v", id, err)
		}
		if final.State != homunculus.JobDone {
			t.Fatalf("recovered job %s ended %s: %s", id, final.State, final.Error)
		}
	}
	recovered, err := d2.client.Job(ctx, job1.ID, true)
	if err != nil {
		t.Fatal(err)
	}

	// An identical resubmission after recovery must be a warm hit — no
	// search stages — serving a byte-identical result.
	again, err := d2.client.SubmitJob(ctx, crashSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	final, err := d2.client.WaitJob(ctx, again.ID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != homunculus.JobDone || !final.CacheHit {
		t.Fatalf("identical resubmit must be a cache hit: %+v", final)
	}
	if len(final.Stages) != 0 {
		t.Fatalf("cache hit ran search stages: %v", final.Stages)
	}
	full, err := d2.client.Job(ctx, again.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if full.SpecHash != recovered.SpecHash {
		t.Fatalf("spec hash drifted: %s vs %s", full.SpecHash, recovered.SpecHash)
	}
	if !reflect.DeepEqual(full.Result, recovered.Result) {
		t.Fatalf("resubmitted result diverged from the recovered one:\n%+v\n%+v", full.Result, recovered.Result)
	}
}

// TestCrashMidRolloutRecovers kills the daemon while an endpoint has a
// live 50% canary rollout in its table, restarts it, and requires the
// endpoint to come back with the rollout intact and classify the same
// batch bit-identically (the deterministic canary split restarts from
// the same sequence); the rollout then completes with a promote.
func TestCrashMidRolloutRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and kills a real daemon")
	}
	stateDir := t.TempDir()
	addr := freeAddr(t)
	d := startDaemon(t, addr, stateDir)
	defer d.kill(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	ids := make([]string, 2)
	for i, seed := range []int64{1, 2} {
		job, err := d.client.SubmitJob(ctx, crashSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		final, err := d.client.WaitJob(ctx, job.ID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != homunculus.JobDone {
			t.Fatalf("job %s ended %s: %s", job.ID, final.State, final.Error)
		}
		ids[i] = job.ID
	}

	var ep httpapi.EndpointJSON
	if err := d.client.Post(ctx, "/v1/endpoints", httpapi.EndpointRequest{
		Name: "ad", JobID: ids[0], Serving: homunculus.ServingConfig{BatchSize: 8},
	}, &ep); err != nil {
		t.Fatal(err)
	}
	if err := d.client.Post(ctx, "/v1/endpoints/ad/rollout", httpapi.RolloutRequest{
		JobID: ids[1], CanaryPercent: 50, Serving: homunculus.ServingConfig{BatchSize: 8},
	}, &ep); err != nil {
		t.Fatal(err)
	}

	// One batch through the live canary split: requests 0..7 of the
	// endpoint's routing sequence.
	batch := [][]float64{
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
		{5, 4, 3, 2, 1, 0.5, 0.25},
		{-1, 0, 1, -1, 0, 1, -1},
		{0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3},
		{2, 2, 2, 2, 2, 2, 2},
		{0, 0, 0, 0, 0, 0, 0},
		{1.5, -0.5, 0.5, -1.5, 2.5, -2.5, 0.1},
		{0.3, 0.1, 0.4, 0.1, 0.5, 0.9, 0.2},
	}
	before, err := d.client.ClassifyEndpoint(ctx, "ad", batch)
	if err != nil {
		t.Fatal(err)
	}
	if len(before.Classes) != len(batch) || before.Dropped != 0 {
		t.Fatalf("pre-crash classify %+v", before)
	}
	// Crash with the rollout mid-flight (canary serving, nothing
	// promoted).
	d.kill(t)

	d2 := startDaemon(t, addr, stateDir)
	defer d2.kill(t)
	var restored httpapi.EndpointJSON
	if err := d2.client.Get(ctx, "/v1/endpoints/ad", &restored); err != nil {
		t.Fatal(err)
	}
	if restored.Stable != 1 || restored.Canary != 2 || restored.CanaryPercent != 50 {
		t.Fatalf("restored rollout state: %+v", restored)
	}
	if len(restored.Revisions) != 2 {
		t.Fatalf("restored revisions: %+v", restored.Revisions)
	}

	// The restored endpoint restarts its routing sequence, so the same
	// first batch must take the same canary split and answer
	// bit-identically.
	after, err := d2.client.ClassifyEndpoint(ctx, "ad", batch)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Classes, before.Classes) {
		t.Fatalf("restored endpoint diverged:\n  before: %v\n  after:  %v", before.Classes, after.Classes)
	}

	// The interrupted rollout completes: promote lands revision 2.
	var promoted httpapi.EndpointJSON
	if err := d2.client.Post(ctx, "/v1/endpoints/ad/promote", nil, &promoted); err != nil {
		t.Fatal(err)
	}
	if promoted.Stable != 2 || promoted.Canary != 0 {
		t.Fatalf("post-promote state: %+v", promoted)
	}
	if _, err := d2.client.ClassifyEndpoint(ctx, "ad", batch); err != nil {
		t.Fatal(err)
	}
}
