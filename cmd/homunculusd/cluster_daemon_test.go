// Three-node cluster acceptance: real daemons, real sockets. A compile
// on one node is a byte-identical zero-stage cache hit on its peers,
// cluster-scope endpoint stats equal the sum of per-node stats, and a
// stolen job still reaches a terminal state under its origin ID after
// the thief is SIGKILLed mid-steal (lease expiry → local reclaim).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/httpapi"

	homunculus "repro"
)

// startClusterDaemon boots one fabric member. peers is the seed list;
// extra appends raw flags (e.g. "-max-inflight", "1").
func startClusterDaemon(t *testing.T, addr string, peers []string, extra ...string) *daemon {
	t.Helper()
	args := []string{
		"-addr", addr, "-node-addr", "http://" + addr,
		"-peers", strings.Join(peers, ","),
		"-heartbeat", "100ms",
		"-steal-interval", "-1s", // stealing is opt-in per test
	}
	args = append(args, extra...)
	cmd := exec.Command(daemonBin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	c := httpapi.NewClient("http://" + addr)
	c.BaseDelay = 50 * time.Millisecond
	c.MaxAttempts = 40
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Get(ctx, "/v1/healthz", nil); err != nil {
		_ = cmd.Process.Kill()
		_, _ = cmd.Process.Wait()
		t.Fatalf("cluster daemon on %s never answered: %v", addr, err)
	}
	return &daemon{cmd: cmd, client: c}
}

// waitPeersAlive polls a node's cluster document until n peers report
// alive.
func waitPeersAlive(t *testing.T, ctx context.Context, d *daemon, n int) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := d.client.ClusterStatus(ctx)
		if err == nil {
			alive := 0
			for _, p := range st.Peers {
				if p.State == "alive" {
					alive++
				}
			}
			if alive >= n {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("peers never became alive (want %d): %v", n, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// fetchEnvelope pulls the verified artifact envelope for hash from a
// node, as raw bytes.
func fetchEnvelope(t *testing.T, ctx context.Context, d *daemon, hash string) []byte {
	t.Helper()
	var raw json.RawMessage
	if err := d.client.Get(ctx, "/v1/cluster/artifacts/"+hash, &raw); err != nil {
		t.Fatalf("fetch envelope %s: %v", hash, err)
	}
	return raw
}

// TestClusterThreeNodeDifferential: compile once on A, and the same
// spec submitted on B is a remote cache hit — no search stages, same
// spec hash, byte-identical envelope from every node that stores it.
// Then cluster-scope stats from any node equal the per-node sum.
func TestClusterThreeNodeDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a three-daemon cluster")
	}
	addrA, addrB, addrC := freeAddr(t), freeAddr(t), freeAddr(t)
	all := []string{"http://" + addrA, "http://" + addrB, "http://" + addrC}
	a := startClusterDaemon(t, addrA, []string{all[1], all[2]})
	defer a.kill(t)
	b := startClusterDaemon(t, addrB, []string{all[0], all[2]})
	defer b.kill(t)
	c := startClusterDaemon(t, addrC, []string{all[0], all[1]})
	defer c.kill(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	waitPeersAlive(t, ctx, a, 2)
	waitPeersAlive(t, ctx, b, 2)

	// Cold compile on A.
	jobA, err := a.client.SubmitJob(ctx, crashSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	finalA, err := a.client.WaitJob(ctx, jobA.ID, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if finalA.State != homunculus.JobDone || finalA.CacheHit {
		t.Fatalf("cold compile on A: %+v", finalA)
	}
	fullA, err := a.client.Job(ctx, jobA.ID, true)
	if err != nil {
		t.Fatal(err)
	}

	// The identical spec on B resolves from A's cache: a hit with zero
	// search stages and the same content address.
	jobB, err := b.client.SubmitJob(ctx, crashSpec(11))
	if err != nil {
		t.Fatal(err)
	}
	finalB, err := b.client.WaitJob(ctx, jobB.ID, 100*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if finalB.State != homunculus.JobDone {
		t.Fatalf("B job ended %s: %s", finalB.State, finalB.Error)
	}
	if !finalB.CacheHit || len(finalB.Stages) != 0 {
		t.Fatalf("B must be a remote cache hit with zero stages: hit=%v stages=%v",
			finalB.CacheHit, finalB.Stages)
	}
	fullB, err := b.client.Job(ctx, jobB.ID, true)
	if err != nil {
		t.Fatal(err)
	}
	if fullB.SpecHash != fullA.SpecHash {
		t.Fatalf("spec hash drifted across nodes: %s vs %s", fullB.SpecHash, fullA.SpecHash)
	}
	if !reflect.DeepEqual(fullB.Result, fullA.Result) {
		t.Fatal("remote cache hit result diverged from the origin compile")
	}
	envA := fetchEnvelope(t, ctx, a, fullA.SpecHash)
	envB := fetchEnvelope(t, ctx, b, fullA.SpecHash)
	if !bytes.Equal(envA, envB) {
		t.Fatal("artifact envelopes differ across nodes")
	}
	stA, err := a.client.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	stB, err := b.client.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stB.Cache.RemoteHits == 0 || stA.Cache.Served == 0 {
		t.Fatalf("cache counters: B hits=%d A served=%d", stB.Cache.RemoteHits, stA.Cache.Served)
	}

	// Cluster-scope stats: the same endpoint name on A and B, different
	// traffic, merged from any node equals the per-node sum.
	var ep httpapi.EndpointJSON
	if err := a.client.Post(ctx, "/v1/endpoints", httpapi.EndpointRequest{
		Name: "clf", JobID: jobA.ID, Serving: homunculus.ServingConfig{BatchSize: 8},
	}, &ep); err != nil {
		t.Fatal(err)
	}
	if err := b.client.Post(ctx, "/v1/endpoints", httpapi.EndpointRequest{
		Name: "clf", JobID: jobB.ID, Serving: homunculus.ServingConfig{BatchSize: 8},
	}, &ep); err != nil {
		t.Fatal(err)
	}
	sample := [][]float64{{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}, {5, 4, 3, 2, 1, 0.5, 0.25}}
	for i := 0; i < 6; i++ { // 12 requests on A
		if _, err := a.client.ClassifyEndpoint(ctx, "clf", sample); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ { // 8 requests on B
		if _, err := b.client.ClassifyEndpoint(ctx, "clf", sample); err != nil {
			t.Fatal(err)
		}
	}
	rawA, err := a.client.EndpointRawStats(ctx, "clf")
	if err != nil {
		t.Fatal(err)
	}
	rawB, err := b.client.EndpointRawStats(ctx, "clf")
	if err != nil {
		t.Fatal(err)
	}
	// Ask C — a node that serves no such endpoint itself would 404, so
	// query from A and B and require both views to agree.
	for _, d := range []*daemon{a, b} {
		merged, err := d.client.EndpointClusterStats(ctx, "clf")
		if err != nil {
			t.Fatal(err)
		}
		if len(merged.Nodes) != 2 {
			t.Fatalf("cluster stats nodes = %d, want 2", len(merged.Nodes))
		}
		if want := rawA.Accepted + rawB.Accepted; merged.Merged.Accepted != want {
			t.Fatalf("merged accepted %d != per-node sum %d", merged.Merged.Accepted, want)
		}
		if want := rawA.Completed + rawB.Completed; merged.Merged.Completed != want {
			t.Fatalf("merged completed %d != per-node sum %d", merged.Merged.Completed, want)
		}
	}
}

// TestClusterStealSurvivesThiefCrash: the origin's queued job is stolen
// by an idle peer, the peer is SIGKILLed mid-execution, and the lease
// expiry reclaims the job into a local run — terminal state under the
// original ID, no operator involvement.
func TestClusterStealSurvivesThiefCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("boots daemons and kills one mid-steal")
	}
	addrA, addrC := freeAddr(t), freeAddr(t)
	// Origin: one compile slot, fast heartbeat, a short lease so the
	// reclaim happens inside the test budget. Thief: aggressive stealing.
	a := startClusterDaemon(t, addrA, []string{"http://" + addrC},
		"-max-inflight", "1", "-steal-lease", "2s")
	defer a.kill(t)
	c := startClusterDaemon(t, addrC, []string{"http://" + addrA},
		"-steal-interval", "50ms")
	defer c.kill(t)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	waitPeersAlive(t, ctx, a, 1)
	waitPeersAlive(t, ctx, c, 1)

	// Fill A's only slot, then queue the victim behind it.
	blocker, err := a.client.SubmitJob(ctx, heavySpec(21))
	if err != nil {
		t.Fatal(err)
	}
	victim, err := a.client.SubmitJob(ctx, heavySpec(22))
	if err != nil {
		t.Fatal(err)
	}

	// Kill the thief the moment the origin grants it the lease.
	grantDeadline := time.Now().Add(30 * time.Second)
	for {
		st, err := a.client.ClusterStatus(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Steal.StolenGranted > 0 {
			break
		}
		if time.Now().After(grantDeadline) {
			t.Fatal("thief never stole the queued job")
		}
		time.Sleep(5 * time.Millisecond)
	}
	c.kill(t)

	// Lease expiry reclaims the job on the origin; both jobs finish
	// under their original IDs.
	for _, id := range []string{blocker.ID, victim.ID} {
		final, err := a.client.WaitJob(ctx, id, 100*time.Millisecond)
		if err != nil {
			t.Fatalf("job %s: %v", id, err)
		}
		if final.State != homunculus.JobDone {
			t.Fatalf("job %s ended %s: %s", id, final.State, final.Error)
		}
	}
	st, err := a.client.ClusterStatus(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Steal.Reclaimed == 0 {
		t.Fatalf("origin never reclaimed the orphaned lease: %+v", st.Steal)
	}
}

// heavySpec is a compile big enough to hold a slot (and a thief) busy
// for seconds — the window the steal test needs.
func heavySpec(seed int64) httpapi.SubmitRequest {
	req := crashSpec(seed)
	req.Search = &httpapi.SearchJSON{
		Init: 4, Iterations: 8, Epochs: 12, MaxLayers: 3, MaxNeurons: 24, Seed: seed,
	}
	return req
}
