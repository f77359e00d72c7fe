package homunculus

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/alchemy"
	"repro/internal/serve"
)

// deployService compiles a fast dtree pipeline through a fresh service
// and returns both, with cleanup registered.
func deployService(t *testing.T) (*Service, *Job) {
	t.Helper()
	svc := New(ServiceOptions{MaxInFlight: 2})
	t.Cleanup(func() { _ = svc.Close() })
	p := alchemy.Taurus()
	p.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name: "ad", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(21)}))
	job, err := svc.Submit(context.Background(), p, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	return svc, job
}

// greedyFlush is the explicit greedy-flush config most tests serve under.
func greedyFlush() ServingConfig { return ServingConfig{MaxDelayNS: new(int64)} }

// TestDeployServeUndeploy is the Go-API acceptance path: compile, serve
// behind an endpoint, classify a replayed synthetic trace end-to-end,
// check the stats account for every request with a nonzero p99, then
// drain through DeleteEndpoint.
func TestDeployServeUndeploy(t *testing.T) {
	svc, job := deployService(t)
	ep, err := svc.CreateEndpoint("ad", job.ID(), EndpointOptions{Serving: ServingConfig{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if revs := ep.Revisions(); len(revs) != 1 || revs[0].JobID != job.ID() || revs[0].App != "ad" || ep.Platform() != "taurus" {
		t.Fatalf("endpoint identity: %+v %q", revs, ep.Platform())
	}

	// Replay the model's own synthetic test split as live traffic.
	data, err := sampleLoader(21).Load()
	if err != nil {
		t.Fatal(err)
	}
	res, err := serve.Replay(ep, data.TestX, data.TestY, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != len(data.TestX) || res.Dropped != 0 {
		t.Fatalf("replay must deliver the whole trace: %+v", res)
	}
	if res.Accuracy < 0.8 {
		t.Fatalf("served accuracy %v implausibly low vs labels", res.Accuracy)
	}

	st := ep.Stats().Merged
	if st.Completed < uint64(len(data.TestX)) {
		t.Fatalf("stats completed %d < replayed %d", st.Completed, len(data.TestX))
	}
	if st.P99 == 0 {
		t.Fatalf("p99 must be nonzero after traffic: %+v", st)
	}
	if st.PerClass[0]+st.PerClass[1] != st.Completed-st.Errors {
		t.Fatalf("per-class counts must partition completions: %+v", st)
	}

	final, err := svc.DeleteEndpoint("ad")
	if err != nil {
		t.Fatal(err)
	}
	if final.Merged.Completed != st.Completed {
		t.Fatalf("final stats lost traffic: %+v vs %+v", final.Merged, st)
	}
}

// TestDeployErrors: what cannot be served is refused with a typed error
// (unknown job and nil pipeline are TestEndpointValidation's).
func TestDeployErrors(t *testing.T) {
	svc, job := deployService(t)

	if _, err := svc.CreateEndpoint("e", job.ID(), EndpointOptions{App: "nope"}); err == nil {
		t.Fatal("unknown app must not serve")
	}
	if _, err := svc.CreateEndpointPipeline("e", &Pipeline{Platform: "taurus", Apps: []AppResult{{Name: "empty"}}}, EndpointOptions{}); !errors.Is(err, ErrNotDeployable) {
		t.Fatalf("modelless pipeline: %v", err)
	}

	// A still-running job cannot serve.
	started, release := make(chan struct{}), make(chan struct{})
	blocked := alchemy.Taurus()
	blocked.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name: "slow", Algorithms: []string{"dtree"},
		DataLoader: blockingLoader(5, started, release)}))
	slow, err := svc.Submit(context.Background(), blocked, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := svc.CreateEndpoint("e", slow.ID(), EndpointOptions{}); !errors.Is(err, ErrJobNotFinished) {
		t.Fatalf("running job: %v, want ErrJobNotFinished", err)
	}
	close(release)
	if _, err := slow.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestDeployPipelineDirect serves a pipeline compiled via Generate (no
// job handle), the CLI -deploy path.
func TestDeployPipelineDirect(t *testing.T) {
	p := alchemy.Taurus()
	p.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name: "direct", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(22)}))
	pipe, err := Generate(context.Background(), p, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	svc := New(ServiceOptions{})
	defer svc.Close()
	ep, err := svc.CreateEndpointPipeline("direct", pipe, EndpointOptions{Serving: greedyFlush()})
	if err != nil {
		t.Fatal(err)
	}
	if revs := ep.Revisions(); len(revs) != 1 || revs[0].JobID != "" {
		t.Fatalf("direct endpoint must have no job: %+v", revs)
	}
	if _, err := ep.Classify([]float64{0.5, -0.5, 0}); err != nil {
		t.Fatal(err)
	}
	cfg := ep.ServingConfig()
	if cfg.Shards < 1 || cfg.BatchSize != 64 || cfg.QueueDepth != 1024 {
		t.Fatalf("defaulted config: %+v", cfg)
	}
}

// TestDeploymentCloseDeregisters is the regression test for the leak
// where a handle closed directly (not via Service.DeleteEndpoint) stayed
// registered in the service map and listed forever: Close must
// deregister.
func TestDeploymentCloseDeregisters(t *testing.T) {
	svc, job := deployService(t)
	ep, err := svc.CreateEndpoint("gone", job.ID(), EndpointOptions{Serving: greedyFlush()})
	if err != nil {
		t.Fatal(err)
	}
	keep, err := svc.CreateEndpoint("keep", job.ID(), EndpointOptions{Serving: greedyFlush()})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := svc.Endpoint("gone"); ok {
		t.Fatal("directly closed endpoint must be deregistered")
	}
	if all := svc.Endpoints(); len(all) != 1 || all[0] != keep {
		t.Fatalf("listing after direct close: %v", all)
	}
	// Closing is idempotent and DeleteEndpoint of the closed name now misses.
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.DeleteEndpoint("gone"); err == nil {
		t.Fatal("delete of a closed-and-deregistered endpoint must error")
	}
	// The survivor is untouched.
	if _, err := keep.Classify([]float64{1, 1, 0}); err != nil {
		t.Fatal(err)
	}
}

// endpointService compiles two distinct dtree pipelines (different data
// seeds, so almost surely different trees) through one service.
func endpointService(t *testing.T) (*Service, *Job, *Job) {
	t.Helper()
	svc := New(ServiceOptions{MaxInFlight: 2})
	t.Cleanup(func() { _ = svc.Close() })
	submit := func(seed int64) *Job {
		p := alchemy.Taurus()
		p.Schedule(alchemy.NewModel(alchemy.ModelSpec{
			Name: "ad", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(seed)}))
		job, err := svc.Submit(context.Background(), p, WithSearchConfig(fastConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return job
	}
	return svc, submit(21), submit(33)
}

// TestEndpointLifecycleService walks the whole Go-API lifecycle: create
// a named endpoint from a finished job, serve, roll out a second job as
// a canary, watch both revisions serve, promote, roll back, delete.
func TestEndpointLifecycleService(t *testing.T) {
	svc, job1, job2 := endpointService(t)

	ep, err := svc.CreateEndpoint("anomaly-detection", job1.ID(), EndpointOptions{
		Serving: ServingConfig{BatchSize: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if ep.Name() != "anomaly-detection" || ep.Platform() != "taurus" {
		t.Fatalf("identity: %q %q", ep.Name(), ep.Platform())
	}
	if got, ok := svc.Endpoint("anomaly-detection"); !ok || got != ep {
		t.Fatal("Endpoint lookup must return the handle")
	}
	if all := svc.Endpoints(); len(all) != 1 || all[0] != ep {
		t.Fatalf("Endpoints listing: %v", all)
	}

	data, err := sampleLoader(21).Load()
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range data.TestX[:32] {
		if _, err := ep.Classify(x); err != nil {
			t.Fatal(err)
		}
	}

	// Canary rollout of the second compiled pipeline.
	rev, err := ep.Rollout(job2.ID(), RolloutOptions{CanaryPercent: 50})
	if err != nil {
		t.Fatal(err)
	}
	if rev.ID != 2 || rev.JobID != job2.ID() || rev.State != "canary" || rev.CanaryPercent != 50 {
		t.Fatalf("rollout info: %+v", rev)
	}
	if _, err := ep.Rollout(job1.ID(), RolloutOptions{}); !errors.Is(err, ErrRolloutActive) {
		t.Fatalf("overlapping rollout: %v", err)
	}
	for _, x := range data.TestX {
		if _, err := ep.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	st := ep.Stats()
	if len(st.Revisions) != 2 {
		t.Fatalf("revisions: %+v", st.Revisions)
	}
	if st.Revisions[0].Stats.Completed == 0 || st.Revisions[1].Stats.Completed == 0 {
		t.Fatalf("a 50%% canary must serve on both revisions: %+v", st.Revisions)
	}
	if st.Merged.Completed != st.Revisions[0].Stats.Completed+st.Revisions[1].Stats.Completed {
		t.Fatalf("merged must sum revisions: %+v", st)
	}
	if st.Revisions[0].JobID != job1.ID() || st.Revisions[1].JobID != job2.ID() {
		t.Fatalf("revision job provenance: %+v", st.Revisions)
	}

	// Promote, then roll back to revision 1, which stayed warm.
	if err := ep.Promote(); err != nil {
		t.Fatal(err)
	}
	if stable, canary, _, _ := ep.View(); stable != 2 || canary != 0 {
		t.Fatalf("post-promote view: %d %d", stable, canary)
	}
	if err := ep.Rollback(); err != nil {
		t.Fatal(err)
	}
	if stable, _, _, _ := ep.View(); stable != 1 {
		t.Fatalf("post-rollback stable: %d", stable)
	}
	if _, err := ep.Classify(data.TestX[0]); err != nil {
		t.Fatal(err)
	}

	final, err := svc.DeleteEndpoint("anomaly-detection")
	if err != nil {
		t.Fatal(err)
	}
	if final.Merged.Accepted != final.Merged.Completed {
		t.Fatalf("drain lost traffic: %+v", final.Merged)
	}
	if _, ok := svc.Endpoint("anomaly-detection"); ok {
		t.Fatal("deleted endpoint must be gone")
	}
	if _, err := ep.Classify(data.TestX[0]); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("classify after delete: %v", err)
	}
	if _, err := svc.DeleteEndpoint("anomaly-detection"); err == nil {
		t.Fatal("double delete must error")
	}
}

// TestEndpointShadowRollout drives a shadow rollout end to end: callers
// see only stable answers while the divergence report fills in.
func TestEndpointShadowRollout(t *testing.T) {
	svc, job1, job2 := endpointService(t)
	ep, err := svc.CreateEndpoint("shadowed", job1.ID(), EndpointOptions{Serving: greedyFlush()})
	if err != nil {
		t.Fatal(err)
	}
	data, err := sampleLoader(21).Load()
	if err != nil {
		t.Fatal(err)
	}
	// Reference answers from a plain single-revision endpoint.
	dep, err := svc.CreateEndpoint("plain", job1.ID(), EndpointOptions{Serving: greedyFlush()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Rollout(job2.ID(), RolloutOptions{Shadow: true}); err != nil {
		t.Fatal(err)
	}
	for _, x := range data.TestX {
		want, err := dep.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ep.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("shadowed classify diverged from stable: %d vs %d", got, want)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		d := ep.Stats().Shadow
		if d != nil && d.Mirrored+d.Shed == uint64(len(data.TestX)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("mirrors never drained: %+v", d)
		}
		time.Sleep(time.Millisecond)
	}
	d := ep.Stats().Shadow
	if d.Revision != 2 || d.Agreed+d.Disagreed+d.Errors != d.Mirrored {
		t.Fatalf("divergence accounting: %+v", d)
	}
}

// TestEndpointConcurrentHotSwap is the service-level race test: clients
// hammer a live endpoint while rollouts, promotes, and rollbacks cycle
// between two compiled pipelines. Zero requests may drop, and the
// endpoint must be quiescent-consistent afterwards.
func TestEndpointConcurrentHotSwap(t *testing.T) {
	svc, job1, job2 := endpointService(t)
	cfg := greedyFlush()
	cfg.QueueDepth = 1 << 15
	ep, err := svc.CreateEndpoint("swap", job1.ID(), EndpointOptions{Serving: cfg})
	if err != nil {
		t.Fatal(err)
	}
	data, err := sampleLoader(21).Load()
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var failures atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if _, err := ep.Classify(data.TestX[(i+w)%len(data.TestX)]); err != nil {
					failures.Add(1)
					return
				}
			}
		}(w)
	}
	jobs := []string{job2.ID(), job1.ID()}
	for i := 0; i < 6; i++ {
		if _, err := ep.Rollout(jobs[i%2], RolloutOptions{CanaryPercent: 50}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if err := ep.Rollback(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := ep.Promote(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d classify calls failed during hot swaps", f)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := ep.Stats().Merged
		if st.Accepted == st.Completed {
			if st.Dropped != 0 || st.Errors != 0 {
				t.Fatalf("hot swap dropped traffic: %+v", st)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("endpoint never quiesced: %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEndpointCanaryZeroMatchesFlat: a 0% canary rollout must leave the
// served classifications bit-identical to a flat endpoint — one with no
// rollout in its table.
func TestEndpointCanaryZeroMatchesFlat(t *testing.T) {
	svc, job1, job2 := endpointService(t)
	dep, err := svc.CreateEndpoint("flat", job1.ID(), EndpointOptions{Serving: greedyFlush()})
	if err != nil {
		t.Fatal(err)
	}
	ep, err := svc.CreateEndpoint("frozen", job1.ID(), EndpointOptions{Serving: greedyFlush()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Rollout(job2.ID(), RolloutOptions{CanaryPercent: 0}); err != nil {
		t.Fatal(err)
	}
	data, err := sampleLoader(21).Load()
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range data.TestX {
		want, err := dep.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ep.Classify(x)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("sample %d: endpoint(0%% canary)=%d, flat endpoint=%d", i, got, want)
		}
	}
	st := ep.Stats()
	if st.Revisions[1].Stats.Accepted != 0 {
		t.Fatalf("0%% canary revision served traffic: %+v", st.Revisions[1])
	}
}

func TestEndpointValidation(t *testing.T) {
	svc, job1, _ := endpointService(t)

	for _, bad := range []string{"", "/x", "a b", "-lead", strings.Repeat("n", 200)} {
		if _, err := svc.CreateEndpoint(bad, job1.ID(), EndpointOptions{}); err == nil {
			t.Fatalf("name %q must be rejected", bad)
		}
	}
	if _, err := svc.CreateEndpoint("dup", job1.ID(), EndpointOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateEndpoint("dup", job1.ID(), EndpointOptions{}); err == nil {
		t.Fatal("duplicate endpoint name must be rejected")
	}
	if _, err := svc.CreateEndpoint("nojob", "job-999999", EndpointOptions{}); err == nil {
		t.Fatal("unknown job must be rejected")
	}
	if _, err := svc.CreateEndpointPipeline("nopipe", nil, EndpointOptions{}); !errors.Is(err, ErrNotDeployable) {
		t.Fatalf("nil pipeline: %v", err)
	}
	ep, _ := svc.Endpoint("dup")
	if _, err := ep.Rollout("job-999999", RolloutOptions{}); err == nil {
		t.Fatal("rollout from unknown job must be rejected")
	}
	if err := ep.Promote(); !errors.Is(err, ErrNoRollout) {
		t.Fatalf("promote without rollout: %v", err)
	}
	if err := ep.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback without history: %v", err)
	}

	// A deleted endpoint's name becomes reusable.
	if _, err := svc.DeleteEndpoint("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CreateEndpoint("dup", job1.ID(), EndpointOptions{}); err != nil {
		t.Fatalf("name must be reusable after delete: %v", err)
	}
}

// TestServiceCloseDrainsEndpoints: Close must drain endpoints so
// accepted traffic is never lost at shutdown.
func TestServiceCloseDrainsEndpoints(t *testing.T) {
	svc, job1, _ := endpointService(t)
	ep, err := svc.CreateEndpoint("closing", job1.ID(), EndpointOptions{Serving: greedyFlush()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Classify([]float64{1, 1, 0}); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Classify([]float64{1, 1, 0}); !errors.Is(err, ErrEndpointClosed) {
		t.Fatalf("post-close classify: %v", err)
	}
	if _, err := svc.CreateEndpoint("late", job1.ID(), EndpointOptions{}); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("create on closed service: %v", err)
	}
}

// TestLifecycleReturnsListedRow: the row Rollout and ApplyConfig return
// is the row Revisions lists for the new revision, origin and warmth
// included — the endpoint keeps one record of its revisions.
func TestLifecycleReturnsListedRow(t *testing.T) {
	svc, job1, job2 := endpointService(t)
	ep, err := svc.CreateEndpoint("rows", job1.ID(), EndpointOptions{Serving: greedyFlush()})
	if err != nil {
		t.Fatal(err)
	}
	listed := func(got RevisionInfo) {
		t.Helper()
		for _, r := range ep.Revisions() {
			if r.ID == got.ID {
				if !reflect.DeepEqual(got, r) {
					t.Fatalf("returned row differs from the listed one:\nreturned %+v\nlisted   %+v", got, r)
				}
				if !got.Warm {
					t.Fatalf("revision %d was just installed but reads cold", got.ID)
				}
				return
			}
		}
		t.Fatalf("returned revision %d is not listed", got.ID)
	}
	for _, opts := range []RolloutOptions{{CanaryPercent: 40}, {Shadow: true}} {
		rev, err := ep.Rollout(job2.ID(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if rev.JobID != job2.ID() || rev.App != "ad" {
			t.Fatalf("rollout origin: %+v", rev.Origin)
		}
		listed(rev)
		if err := ep.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	rev, err := ep.ApplyConfig(ServingConfig{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rev.JobID != job1.ID() || rev.State != "stable" {
		t.Fatalf("applied revision must keep the stable's origin: %+v", rev)
	}
	listed(rev)
}
