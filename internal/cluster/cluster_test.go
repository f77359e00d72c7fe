package cluster

// In-process cluster harness: each node is a real homunculus.Service
// behind a real httptest server with the fabric's routes mounted — the
// same composition cmd/homunculusd performs — so membership, cache
// fetches, delegation, and stealing all cross genuine HTTP.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/alchemy"
	"repro/internal/httpapi"
	"repro/internal/store"

	homunculus "repro"
)

var registerClusterLoaders sync.Once

// clusterGate lets a test hold "cluster_block" jobs in their load stage.
// Nil (the default) means no blocking; tests install a fresh gate with
// newGate and release it when saturation is no longer needed.
var clusterGate atomic.Pointer[gate]

type gate struct {
	ch   chan struct{}
	once sync.Once
}

func (g *gate) release() {
	g.once.Do(func() {
		close(g.ch)
		clusterGate.CompareAndSwap(g, nil)
	})
}

// releaseGate opens the installed gate, if any. Every node's cleanup
// calls it before closing the node, so a test that fails while a
// "cluster_block" job holds the gate does not hang in Service.Close.
func releaseGate() {
	if g := clusterGate.Load(); g != nil {
		g.release()
	}
}

func newGate(t *testing.T) (release func()) {
	t.Helper()
	g := &gate{ch: make(chan struct{})}
	clusterGate.Store(g)
	t.Cleanup(g.release)
	return g.release
}

func clusterTinyData() *alchemy.Data {
	d := &alchemy.Data{FeatureNames: []string{"fa", "fb"}}
	for i := 0; i < 120; i++ {
		c := i % 2
		d.TrainX = append(d.TrainX, []float64{float64(c)*2 + float64(i%5)*0.1, float64(1-c) + float64(i%3)*0.1})
		d.TrainY = append(d.TrainY, c)
	}
	for i := 0; i < 40; i++ {
		c := i % 2
		d.TestX = append(d.TestX, []float64{float64(c)*2 + float64(i%5)*0.1, float64(1-c) + float64(i%3)*0.1})
		d.TestY = append(d.TestY, c)
	}
	return d
}

func loadLoaders() {
	registerClusterLoaders.Do(func() {
		alchemy.RegisterLoader("cluster_tiny", alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
			return clusterTinyData(), nil
		}))
		alchemy.RegisterLoader("cluster_block", alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
			if g := clusterGate.Load(); g != nil {
				<-g.ch
			}
			return clusterTinyData(), nil
		}))
	})
}

type testNode struct {
	t   *testing.T
	svc *homunculus.Service
	fab *Fabric
	srv *httptest.Server
}

// startNode boots one cluster node. cfg.SelfAddr is filled in from the
// test server; peers reference other nodes' URL().
func startNode(t *testing.T, svcOpts homunculus.ServiceOptions, cfg Config) *testNode {
	t.Helper()
	loadLoaders()
	var hp atomic.Pointer[http.Handler]
	placeholder := http.Handler(http.NotFoundHandler())
	hp.Store(&placeholder)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*hp.Load()).ServeHTTP(w, r)
	}))
	var svc *homunculus.Service
	if svcOpts.StateDir != "" {
		var err error
		svc, err = homunculus.Open(svcOpts)
		if err != nil {
			srv.Close()
			t.Fatalf("open service: %v", err)
		}
	} else {
		svc = homunculus.New(svcOpts)
	}
	cfg.SelfAddr = srv.URL
	if cfg.Heartbeat == 0 {
		cfg.Heartbeat = 50 * time.Millisecond
	}
	if cfg.StealInterval == 0 {
		cfg.StealInterval = -1 // steal only in tests that opt in
	}
	if cfg.FetchTimeout == 0 {
		cfg.FetchTimeout = 2 * time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	fab, err := New(svc, cfg)
	if err != nil {
		srv.Close()
		t.Fatalf("new fabric: %v", err)
	}
	handler := http.Handler(httpapi.NewServerWith(svc, fab.Options()))
	hp.Store(&handler)
	fab.Start()
	t.Cleanup(func() {
		releaseGate()
		fab.Close()
		_ = svc.Close()
		srv.Close()
	})
	return &testNode{t: t, svc: svc, fab: fab, srv: srv}
}

func (n *testNode) URL() string { return n.srv.URL }

func specBody(dataset string, seed int64) string {
	return fmt.Sprintf(`{
		"platform": {
			"kind": "taurus",
			"constraints": {"rows": 16, "cols": 16},
			"schedule": {"model": {"name": "tiny", "algorithms": ["dtree"], "dataset": %q}}
		},
		"search": {"init": 2, "iterations": 2, "seed": %d}
	}`, dataset, seed)
}

func (n *testNode) submit(body string) httpapi.JobJSON {
	n.t.Helper()
	resp, err := http.Post(n.srv.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		n.t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		n.t.Fatalf("POST /v1/jobs: status %d: %s", resp.StatusCode, raw)
	}
	var job httpapi.JobJSON
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		n.t.Fatal(err)
	}
	return job
}

func (n *testNode) pollDone(id string) httpapi.JobJSON {
	n.t.Helper()
	deadline := time.Now().Add(90 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(n.srv.URL + "/v1/jobs/" + id)
		if err != nil {
			n.t.Fatal(err)
		}
		var job httpapi.JobJSON
		err = json.NewDecoder(resp.Body).Decode(&job)
		resp.Body.Close()
		if err != nil {
			n.t.Fatal(err)
		}
		if job.State.Terminal() {
			return job
		}
		time.Sleep(20 * time.Millisecond)
	}
	n.t.Fatalf("job %s did not finish in time", id)
	return httpapi.JobJSON{}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fetchEnvelope pulls a raw artifact envelope over the peer wire.
func fetchEnvelope(t *testing.T, baseURL, hash string) []byte {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/cluster/artifacts/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET artifact %s: status %d: %s", hash, resp.StatusCode, raw)
	}
	return raw
}

// TestGossipMembership: a weakly-connected seed graph (A→B, B→C)
// converges to a full mesh where every node sees the other two alive.
func TestGossipMembership(t *testing.T) {
	a := startNode(t, homunculus.ServiceOptions{}, Config{})
	b := startNode(t, homunculus.ServiceOptions{}, Config{Peers: []string{a.URL()}})
	c := startNode(t, homunculus.ServiceOptions{}, Config{Peers: []string{b.URL()}})

	alive := func(n *testNode, want int) bool {
		st := n.fab.Status()
		live := 0
		for _, p := range st.Peers {
			if p.State == "alive" {
				live++
			}
		}
		return live >= want
	}
	waitFor(t, 10*time.Second, "A to see 2 live peers", func() bool { return alive(a, 2) })
	waitFor(t, 10*time.Second, "B to see 2 live peers", func() bool { return alive(b, 2) })
	waitFor(t, 10*time.Second, "C to see 2 live peers", func() bool { return alive(c, 2) })

	// Peer digests carry identity and epoch once heard from.
	for _, p := range a.fab.Status().Peers {
		if p.State == "alive" && (p.ID == "" || p.Epoch == 0) {
			t.Fatalf("live peer digest missing identity: %+v", p)
		}
	}
}

// TestRemoteCacheFetchHit: a spec compiled on A resolves on B as a
// remote cache hit — no search stages run on B, and the artifact bytes
// served by both nodes are identical.
func TestRemoteCacheFetchHit(t *testing.T) {
	a := startNode(t, homunculus.ServiceOptions{}, Config{})
	b := startNode(t, homunculus.ServiceOptions{}, Config{Peers: []string{a.URL()}})

	first := a.pollDone(a.submit(specBody("cluster_tiny", 1)).ID)
	if first.State != homunculus.JobDone {
		t.Fatalf("A compile: state %q (%s)", first.State, first.Error)
	}
	if first.SpecHash == "" {
		t.Fatal("A compile: no spec hash")
	}

	second := b.pollDone(b.submit(specBody("cluster_tiny", 1)).ID)
	if second.State != homunculus.JobDone {
		t.Fatalf("B compile: state %q (%s)", second.State, second.Error)
	}
	if !second.CacheHit {
		t.Fatal("B's identical submission was not a cache hit")
	}
	if len(second.Stages) != 0 {
		t.Fatalf("remote hit ran %d stages, want 0", len(second.Stages))
	}
	if second.SpecHash != first.SpecHash {
		t.Fatalf("spec hash diverged: %s vs %s", second.SpecHash, first.SpecHash)
	}

	bst := b.fab.Status()
	if bst.Cache.RemoteHits == 0 {
		t.Fatalf("B remote hits = 0: %+v", bst.Cache)
	}
	if a.fab.Status().Cache.Served == 0 {
		t.Fatal("A served no artifact requests")
	}

	envA := fetchEnvelope(t, a.URL(), first.SpecHash)
	envB := fetchEnvelope(t, b.URL(), first.SpecHash)
	if !bytes.Equal(envA, envB) {
		t.Fatal("artifact envelopes differ between nodes")
	}
	if _, err := store.VerifyEnvelope(first.SpecHash, envA); err != nil {
		t.Fatalf("served envelope does not verify: %v", err)
	}
}

// TestQueueFullDelegation: with A's slot and queue saturated, a new
// submission is delegated to B and still reaches a terminal state on A
// under A's job ID.
func TestQueueFullDelegation(t *testing.T) {
	release := newGate(t)
	a := startNode(t, homunculus.ServiceOptions{MaxInFlight: 1, QueueDepth: 1}, Config{})
	startNode(t, homunculus.ServiceOptions{}, Config{Peers: []string{a.URL()}})

	// A must see B alive to delegate.
	waitFor(t, 10*time.Second, "A to see B alive", func() bool {
		for _, p := range a.fab.Status().Peers {
			if p.State == "alive" {
				return true
			}
		}
		return false
	})

	// Saturate A: one blocked run, one blocked queue slot.
	a.submit(specBody("cluster_block", 10))
	a.submit(specBody("cluster_block", 11))
	waitFor(t, 10*time.Second, "A saturation", func() bool {
		queued, running := a.svc.Stats()
		return queued == 1 && running == 1
	})

	delegated := a.submit(specBody("cluster_tiny", 12))
	final := a.pollDone(delegated.ID)
	if final.State != homunculus.JobDone {
		t.Fatalf("delegated job: state %q (%s)", final.State, final.Error)
	}
	if st := a.fab.Status().Steal; st.Delegated == 0 {
		t.Fatalf("A delegated counter = 0: %+v", st)
	}
	// The artifact exists on A too: the delegated result installs at the
	// origin.
	if _, ok := a.svc.ExportArtifact(final.SpecHash); !ok {
		t.Fatal("delegated result not installed on origin")
	}
	release()
}

// TestStealCompletesUnderOriginID: an idle B steals A's queued job,
// executes it, and the job completes on A under its original ID.
func TestStealCompletesUnderOriginID(t *testing.T) {
	release := newGate(t)
	a := startNode(t, homunculus.ServiceOptions{MaxInFlight: 1}, Config{})
	b := startNode(t, homunculus.ServiceOptions{}, Config{Peers: []string{a.URL()}, StealInterval: 50 * time.Millisecond})

	a.submit(specBody("cluster_block", 20)) // occupies A's only slot
	victim := a.submit(specBody("cluster_tiny", 21))
	waitFor(t, 10*time.Second, "victim queued", func() bool {
		queued, _ := a.svc.Stats()
		return queued >= 1
	})

	final := a.pollDone(victim.ID)
	if final.State != homunculus.JobDone {
		t.Fatalf("stolen job: state %q (%s)", final.State, final.Error)
	}
	ast := a.fab.Status().Steal
	if ast.StolenGranted == 0 || ast.StolenCompleted == 0 {
		t.Fatalf("A steal counters: %+v", ast)
	}
	if bst := b.fab.Status().Steal; bst.StealsExecuted == 0 {
		t.Fatalf("B steal counters: %+v", bst)
	}
	// The thief-compiled artifact came home to the origin.
	if _, ok := a.svc.ExportArtifact(final.SpecHash); !ok {
		t.Fatal("stolen result not installed on origin")
	}
	release()
}

// TestStealLeaseReclaim: a thief that claims a job and goes silent
// loses the lease; the origin reclaims and the job still completes
// under its original ID.
func TestStealLeaseReclaim(t *testing.T) {
	release := newGate(t)
	a := startNode(t, homunculus.ServiceOptions{MaxInFlight: 1}, Config{StealLease: 300 * time.Millisecond})

	a.submit(specBody("cluster_block", 30)) // hold the slot so the victim stays queued
	victim := a.submit(specBody("cluster_tiny", 31))
	waitFor(t, 10*time.Second, "victim queued", func() bool {
		queued, _ := a.svc.Stats()
		return queued >= 1
	})

	// A ghost thief claims the job and never reports.
	grant, ok := a.fab.grantSteal(httpapi.StealRequestJSON{
		JobID: victim.ID, ThiefID: "ghost", ThiefAddr: "http://127.0.0.1:1",
	})
	if !ok {
		t.Fatal("steal grant refused")
	}
	if grant.JobID != victim.ID || len(grant.Spec) == 0 {
		t.Fatalf("grant: %+v", grant)
	}

	final := a.pollDone(victim.ID)
	if final.State != homunculus.JobDone {
		t.Fatalf("reclaimed job: state %q (%s)", final.State, final.Error)
	}
	if st := a.fab.Status().Steal; st.Reclaimed == 0 {
		t.Fatalf("reclaim counter = 0: %+v", st)
	}
	// A late report for the reclaimed lease is refused — the local run
	// owned the terminal transition.
	if err := a.fab.handleStolenReport(httpapi.StealReportJSON{JobID: victim.ID, State: "done"}); err == nil {
		t.Fatal("late stolen report was accepted after reclaim")
	}
	release()
}

// TestStealReportFromHolderOnly: a stolen job is settled only by the
// thief that holds its lease. A third party that knows the leased job's
// ID reports it done from a fault peer seeded with a pipeline of its
// choosing, then reports it failed under the thief's own address: both
// are refused with 403, nothing is fetched, and the job stays leased.
// The thief's report, carrying its lease token, then completes the job
// with the thief's artifact.
func TestStealReportFromHolderOnly(t *testing.T) {
	newGate(t)
	a := startNode(t, homunculus.ServiceOptions{MaxInFlight: 1}, Config{StealLease: time.Minute})
	b := startNode(t, homunculus.ServiceOptions{}, Config{})
	fp, err := NewFaultPeer("evil")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fp.Close)

	// The thief already holds the victim spec's artifact; the fault peer
	// holds another pipeline under that spec hash.
	hash := b.pollDone(b.submit(specBody("cluster_tiny", 61)).ID).SpecHash
	want, _ := b.svc.ExportArtifact(hash)
	otherSpec := strings.Replace(specBody("cluster_tiny", 62), `"dtree"`, `"kmeans"`, 1)
	other, _ := b.svc.ExportArtifact(b.pollDone(b.submit(otherSpec).ID).SpecHash)
	if len(want) == 0 || len(other) == 0 || bytes.Equal(want, other) {
		t.Fatal("thief artifacts missing or equal")
	}
	if err := fp.Seed(hash, other); err != nil {
		t.Fatal(err)
	}

	a.submit(specBody("cluster_block", 60)) // occupies A's only slot
	victim := a.submit(specBody("cluster_tiny", 61))
	waitFor(t, 10*time.Second, "victim queued", func() bool {
		queued, _ := a.svc.Stats()
		return queued >= 1
	})
	post := func(path string, v any) int {
		t.Helper()
		body, _ := json.Marshal(v)
		resp, err := http.Post(a.URL()+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const token = "0123456789abcdef0123456789abcdef"
	if code := post("/v1/cluster/steal", httpapi.StealRequestJSON{JobID: victim.ID, ThiefID: "b", ThiefAddr: b.URL(), LeaseToken: token}); code != http.StatusOK {
		t.Fatalf("steal: status %d", code)
	}
	for _, rep := range []httpapi.StealReportJSON{
		{JobID: victim.ID, State: "done", SpecHash: hash, Addr: fp.Addr()},
		{JobID: victim.ID, State: "done", SpecHash: hash, Addr: fp.Addr(), LeaseToken: "guess"},
		{JobID: victim.ID, State: "done", SpecHash: hash, Addr: fp.Addr(), LeaseToken: token},
		{JobID: victim.ID, State: "failed", Error: "sabotage", Addr: b.URL(), LeaseToken: "guess"},
	} {
		if code := post("/v1/cluster/stolen", rep); code != http.StatusForbidden {
			t.Fatalf("third-party report %+v: status %d, want 403", rep, code)
		}
	}
	a.fab.mu.Lock()
	_, leased := a.fab.stolen[victim.ID]
	a.fab.mu.Unlock()
	if !leased || fp.Served() != 0 {
		t.Fatalf("after refused reports: leased=%v, fault peer served %d", leased, fp.Served())
	}
	if job, ok := a.svc.Job(victim.ID); !ok || job.Status().State.Terminal() {
		t.Fatalf("victim settled by a refused report: %v", ok)
	}

	if code := post("/v1/cluster/stolen", httpapi.StealReportJSON{JobID: victim.ID, State: "done", SpecHash: hash, Addr: b.URL(), LeaseToken: token}); code != http.StatusOK {
		t.Fatalf("thief's report: status %d", code)
	}
	final := a.pollDone(victim.ID)
	if final.State != homunculus.JobDone || final.SpecHash != hash {
		t.Fatalf("stolen job: state %q hash %s (%s)", final.State, final.SpecHash, final.Error)
	}
	if got, _ := a.svc.ExportArtifact(hash); !bytes.Equal(got, want) {
		t.Fatal("origin installed another artifact than the thief's")
	}
}

// TestStealWireShape pins what crosses nodes when work is stolen: the
// backlog listing and the grant carry the journal's wire job under the
// keys peers already speak, and the two steal bodies are read under the
// request cap.
func TestStealWireShape(t *testing.T) {
	release := newGate(t)
	a := startNode(t, homunculus.ServiceOptions{MaxInFlight: 1}, Config{StealLease: time.Minute})
	a.submit(specBody("cluster_block", 40))
	victim := a.submit(specBody("cluster_tiny", 41))
	waitFor(t, 10*time.Second, "victim queued", func() bool {
		queued, _ := a.svc.Stats()
		return queued >= 1
	})

	keys := func(raw []byte) string {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("%s: %v", raw, err)
		}
		names := make([]string, 0, len(doc))
		for k := range doc {
			names = append(names, k)
		}
		sort.Strings(names)
		return fmt.Sprint(names)
	}
	resp, err := http.Get(a.URL() + "/v1/cluster/backlog")
	if err != nil {
		t.Fatal(err)
	}
	var backlog struct{ Jobs []json.RawMessage }
	err = json.NewDecoder(resp.Body).Decode(&backlog)
	resp.Body.Close()
	if err != nil || len(backlog.Jobs) != 1 {
		t.Fatalf("backlog: %v %+v", err, backlog)
	}
	if got := keys(backlog.Jobs[0]); got != "[id platform search spec]" {
		t.Fatalf("backlog job keys %s", got)
	}
	for _, path := range []string{"/v1/cluster/steal", "/v1/cluster/stolen"} {
		big := `{"job_id": "` + strings.Repeat("x", httpapi.MaxRequestBody) + `"}`
		resp, err := http.Post(a.URL()+path, "application/json", strings.NewReader(big))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversize POST %s: status %d, want 413", path, resp.StatusCode)
		}
	}
	body, _ := json.Marshal(httpapi.StealRequestJSON{JobID: victim.ID, ThiefID: "ghost", ThiefAddr: "http://127.0.0.1:1"})
	resp, err = http.Post(a.URL()+"/v1/cluster/steal", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("steal: status %d %s", resp.StatusCode, raw)
	}
	if got := keys(raw); got != "[job_id lease_ms platform search spec]" {
		t.Fatalf("grant keys %s", got)
	}
	// The grant is the submission: a thief admits it as it stands.
	var grant httpapi.StealGrantJSON
	if err := json.Unmarshal(raw, &grant); err != nil {
		t.Fatal(err)
	}
	b := homunculus.New(homunculus.ServiceOptions{})
	defer b.Close()
	job, err := b.SubmitWire(context.Background(), grant.WireJob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	release() // the lease never expires in this test: finish the victim by report
	if err := a.fab.handleStolenReport(httpapi.StealReportJSON{JobID: victim.ID, State: "failed", Error: "ghost"}); err != nil {
		t.Fatal(err)
	}
}

// TestPoisonedPeerQuarantined: a peer serving corrupt envelopes
// contributes nothing — the response is rejected before installation,
// the peer is quarantined and skipped thereafter, and the node compiles
// honestly.
func TestPoisonedPeerQuarantined(t *testing.T) {
	fp, err := NewFaultPeer("evil")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fp.Close)
	// Serve a well-formed envelope whose payload was tampered with after
	// wrapping — digest verification must catch it.
	fp.MutateArtifact = func(hash string, env []byte) (int, []byte) {
		body := []byte(`{"version":1,"spec_hash":"` + hash + `","payload_sha256":"0000000000000000000000000000000000000000000000000000000000000000","payload":{"evil":true}}`)
		return http.StatusOK, body
	}

	a := startNode(t, homunculus.ServiceOptions{}, Config{Peers: []string{fp.Addr()}})
	waitFor(t, 10*time.Second, "A to see the fault peer alive", func() bool {
		for _, p := range a.fab.Status().Peers {
			if p.State == "alive" {
				return true
			}
		}
		return false
	})

	final := a.pollDone(a.submit(specBody("cluster_tiny", 40)).ID)
	if final.State != homunculus.JobDone {
		t.Fatalf("job: state %q (%s)", final.State, final.Error)
	}
	if final.CacheHit {
		t.Fatal("poisoned response must not produce a cache hit")
	}
	st := a.fab.Status()
	if st.Cache.Poisoned == 0 {
		t.Fatalf("poisoned counter = 0: %+v", st.Cache)
	}
	quarantined := false
	for _, p := range st.Peers {
		if p.Addr == fp.Addr() && p.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("fault peer not quarantined: %+v", st.Peers)
	}
	// The locally compiled artifact verifies — nothing corrupt was
	// installed under the spec hash.
	env := fetchEnvelope(t, a.URL(), final.SpecHash)
	if _, err := store.VerifyEnvelope(final.SpecHash, env); err != nil {
		t.Fatalf("locally stored artifact corrupt: %v", err)
	}

	// Quarantined peers are skipped: a second, different spec triggers
	// no further artifact requests to the fault peer.
	served := fp.Served()
	if final2 := a.pollDone(a.submit(specBody("cluster_tiny", 41)).ID); final2.State != homunculus.JobDone {
		t.Fatalf("second job: state %q", final2.State)
	}
	if fp.Served() != served {
		t.Fatalf("quarantined peer still queried: %d → %d", served, fp.Served())
	}
}

// TestPushedArtifactRefused: an envelope is intact when its payload
// matches its digest, whatever spec the payload was compiled from, so a
// node must not accept artifacts it did not fetch. A PUT that binds a
// dtree spec's hash to an svm pipeline is not routed, and the dtree
// spec then compiles for itself into its own artifact.
func TestPushedArtifactRefused(t *testing.T) {
	x := specBody("cluster_tiny", 70)
	y := strings.Replace(specBody("cluster_tiny", 71), `"dtree"`, `"svm"`, 1)

	// A node outside the fabric compiles both specs: X's hash, X's
	// honest artifact, and Y's pipeline to forge with.
	ref := startNode(t, homunculus.ServiceOptions{}, Config{})
	jobX := ref.pollDone(ref.submit(x).ID)
	jobY := ref.pollDone(ref.submit(y).ID)
	if jobX.State != homunculus.JobDone || jobY.State != homunculus.JobDone {
		t.Fatalf("reference compiles: X %q (%s), Y %q (%s)", jobX.State, jobX.Error, jobY.State, jobY.Error)
	}
	honest := fetchEnvelope(t, ref.URL(), jobX.SpecHash)
	payloadY, err := store.VerifyEnvelope(jobY.SpecHash, fetchEnvelope(t, ref.URL(), jobY.SpecHash))
	if err != nil {
		t.Fatal(err)
	}
	forged, err := store.WrapEnvelope(jobX.SpecHash, payloadY)
	if err != nil {
		t.Fatal(err)
	}

	a := startNode(t, homunculus.ServiceOptions{}, Config{})
	req, err := http.NewRequest(http.MethodPut, a.URL()+"/v1/cluster/artifacts/"+jobX.SpecHash, bytes.NewReader(forged))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("PUT of a forged envelope: status %d, want 405", resp.StatusCode)
	}

	got := a.pollDone(a.submit(x).ID)
	if got.State != homunculus.JobDone {
		t.Fatalf("X on A: state %q (%s)", got.State, got.Error)
	}
	if got.CacheHit || len(got.Stages) == 0 {
		t.Fatalf("X on A: cache_hit=%v with %d stages, want a compile", got.CacheHit, len(got.Stages))
	}
	if env := fetchEnvelope(t, a.URL(), jobX.SpecHash); !bytes.Equal(env, honest) {
		t.Fatalf("A serves X's hash with another artifact:\n got %.120s\nwant %.120s", env, honest)
	}
}

// TestClusterStatsSum: ?scope=cluster merges per-node endpoint stats
// exactly — counters equal the sum over the nodes that answered.
func TestClusterStatsSum(t *testing.T) {
	a := startNode(t, homunculus.ServiceOptions{}, Config{})
	b := startNode(t, homunculus.ServiceOptions{}, Config{Peers: []string{a.URL()}})

	jobA := a.pollDone(a.submit(specBody("cluster_tiny", 50)).ID)
	if jobA.State != homunculus.JobDone {
		t.Fatalf("A compile: %q (%s)", jobA.State, jobA.Error)
	}
	jobB := b.pollDone(b.submit(specBody("cluster_tiny", 50)).ID)
	if jobB.State != homunculus.JobDone {
		t.Fatalf("B compile: %q (%s)", jobB.State, jobB.Error)
	}

	epA, err := a.svc.CreateEndpoint("clf", jobA.ID, homunculus.EndpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.svc.CreateEndpoint("clf", jobB.ID, homunculus.EndpointOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if _, err := epA.Classify([]float64{1.5, 0.2}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 25; i++ {
		if _, err := epB.Classify([]float64{0.1, 1.1}); err != nil {
			t.Fatal(err)
		}
	}

	// Both nodes must be mutually alive for the fan-out to cover them.
	waitFor(t, 10*time.Second, "mutual liveness", func() bool {
		ok := func(n *testNode) bool {
			for _, p := range n.fab.Status().Peers {
				if p.State == "alive" {
					return true
				}
			}
			return false
		}
		return ok(a) && ok(b)
	})

	client := httpapi.NewClient(a.URL())
	merged, err := client.EndpointClusterStats(context.Background(), "clf")
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Nodes) != 2 {
		t.Fatalf("cluster stats cover %d nodes, want 2", len(merged.Nodes))
	}
	var sum uint64
	for _, n := range merged.Nodes {
		sum += n.Stats.Accepted
	}
	if merged.Merged.Accepted != sum || sum != 65 {
		t.Fatalf("merged accepted %d, per-node sum %d, want 65", merged.Merged.Accepted, sum)
	}
	rawA := epA.RawStats()
	rawA.Merge(epB.RawStats())
	if got := rawA.Stats(); got.Accepted != merged.Merged.Accepted ||
		got.P99.Nanoseconds() != merged.Merged.P99NS {
		t.Fatalf("wire merge diverges from direct merge: %+v vs %+v", merged.Merged, got)
	}

	// Unknown endpoints 404 through the cluster path too.
	if _, err := client.EndpointClusterStats(context.Background(), "nope"); err == nil {
		t.Fatal("cluster stats for unknown endpoint succeeded")
	}
}

// BenchmarkClusterCacheFetch measures one peer artifact fetch: HTTP
// round trip plus envelope verification — the latency a remote cache
// hit pays instead of a full search.
func BenchmarkClusterCacheFetch(b *testing.B) {
	loadLoaders()
	svcA := homunculus.New(homunculus.ServiceOptions{})
	defer svcA.Close()
	srvA := httptest.NewServer(func() http.Handler {
		fabA, err := New(svcA, Config{SelfAddr: "http://origin", StealInterval: -1, Logf: func(string, ...any) {}})
		if err != nil {
			b.Fatal(err)
		}
		return httpapi.NewServerWith(svcA, fabA.Options())
	}())
	defer srvA.Close()

	spec := specBody("cluster_tiny", 99)
	resp, err := http.Post(srvA.URL+"/v1/jobs", "application/json", bytes.NewBufferString(spec))
	if err != nil {
		b.Fatal(err)
	}
	var job httpapi.JobJSON
	json.NewDecoder(resp.Body).Decode(&job)
	resp.Body.Close()
	var hash string
	for i := 0; i < 3000; i++ {
		j, ok := svcA.Job(job.ID)
		if !ok {
			b.Fatal("job lost")
		}
		st := j.Status()
		if st.State == homunculus.JobDone {
			hash = st.SpecHash
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if hash == "" {
		b.Fatal("seed compile did not finish")
	}

	svcB := homunculus.New(homunculus.ServiceOptions{})
	defer svcB.Close()
	fabB, err := New(svcB, Config{SelfAddr: "http://thief", Peers: []string{srvA.URL}, StealInterval: -1, Logf: func(string, ...any) {}})
	if err != nil {
		b.Fatal(err)
	}
	defer fabB.Close()

	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		payload, ok := fabB.Fetch(ctx, hash)
		if !ok || len(payload) == 0 {
			b.Fatal("remote fetch missed")
		}
	}
}
