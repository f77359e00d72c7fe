package homunculus

// Tests for the job-based service API: immediate Submit, the
// content-addressed cache with single-flight coalescing (N identical
// concurrent submissions run exactly one search), cache keying (seeds
// and constraints miss), admission + cancellation (a queued job
// cancelled before dispatch never runs), and Close semantics (drain
// running, fail queued with ErrServiceClosed).

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/alchemy"
)

// blockingLoader signals started on its first Load and blocks every
// Load until release closes (dispatch touches the loader exactly once —
// the fingerprint's materialized data feeds the load stage — but the
// once-guard keeps the helper honest either way).
func blockingLoader(dataSeed int64, started, release chan struct{}) alchemy.DataLoader {
	var once sync.Once
	return alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		once.Do(func() { close(started) })
		<-release
		return sampleLoader(dataSeed).Load()
	})
}

// servicePlatform declares a fresh single-model platform over the
// deterministic sample data; identical calls are identical submissions
// (the anonymous loaders fingerprint by content).
func servicePlatform(dataSeed int64, algorithms ...string) *alchemy.Platform {
	if len(algorithms) == 0 {
		algorithms = []string{"dtree"}
	}
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "svc_app", Algorithms: algorithms, DataLoader: sampleLoader(dataSeed)})
	p := alchemy.Taurus()
	p.Schedule(model)
	return p
}

func TestSubmitReturnsImmediately(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1, QueueDepth: 8})
	defer svc.Close()
	// A "large spec": loading the data blocks until released. Submit
	// must not touch the loader — admission is enqueue-only.
	release := make(chan struct{})
	loader := alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		<-release
		return sampleLoader(31).Load()
	})
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "slow_spec", Algorithms: []string{"dtree"}, DataLoader: loader})
	p := alchemy.Taurus()
	p.Schedule(model)

	start := time.Now()
	job, err := svc.Submit(context.Background(), p, WithSearchConfig(fastConfig()))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	// The budget is <1ms; allow generous CI slack while still catching
	// any synchronous load/hash/search sneaking into Submit (the loader
	// blocks forever until released, so that would hang, not just slow).
	if elapsed > 100*time.Millisecond {
		t.Fatalf("Submit took %v", elapsed)
	}
	if st := job.Status().State; st != JobQueued && st != JobRunning {
		t.Fatalf("fresh job state %q", st)
	}
	close(release)
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if job.Status().State != JobDone {
		t.Fatalf("state %q, want done", job.Status().State)
	}
}

func TestServiceCacheSingleFlight(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 4, QueueDepth: -1, CacheEntries: 16})
	defer svc.Close()
	cfg := fastConfig()

	// Count app-level search completions across ALL submissions: the
	// single-flight guarantee is that N identical concurrent submits
	// perform exactly one search.
	var searches atomic.Int32
	progress := func(ev Event) {
		if ev.Stage == StageSearch && ev.Candidate == "" && ev.Done {
			searches.Add(1)
		}
	}

	const n = 6
	jobs := make([]*Job, n)
	for i := range jobs {
		job, err := svc.Submit(context.Background(), servicePlatform(32),
			WithSearchConfig(cfg), WithProgress(progress))
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job
	}
	pipes := make([]*Pipeline, n)
	hits := 0
	for i, job := range jobs {
		pipe, err := job.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		pipes[i] = pipe
		st := job.Status()
		if st.CacheHit {
			hits++
		}
		if st.SpecHash == "" || st.SpecHash != jobs[0].Status().SpecHash {
			t.Fatalf("job %d spec hash %q diverges from %q", i, st.SpecHash, jobs[0].Status().SpecHash)
		}
	}
	if got := searches.Load(); got != 1 {
		t.Fatalf("%d searches ran for %d identical submissions, want exactly 1", got, n)
	}
	if hits != n-1 {
		t.Fatalf("%d cache hits, want %d (all but the leader)", hits, n-1)
	}
	for i := 1; i < n; i++ {
		if pipes[i] != pipes[0] {
			t.Fatalf("job %d resolved to a different pipeline instance", i)
		}
	}

	// A cache hit must be byte-identical to a cold fixed-seed compile.
	cold, err := Generate(context.Background(), servicePlatform(32), WithSearchConfig(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pipelineFingerprint(t, pipes[0]), pipelineFingerprint(t, cold)) {
		t.Fatal("cached service result differs from direct Generate output")
	}
}

func TestServiceCacheKeying(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 2, QueueDepth: -1, CacheEntries: 16})
	defer svc.Close()
	cfg := fastConfig()
	wait := func(p *alchemy.Platform, opts ...Option) *Job {
		t.Helper()
		job, err := svc.Submit(context.Background(), p, opts...)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return job
	}

	warm := wait(servicePlatform(33), WithSearchConfig(cfg))
	if warm.Status().CacheHit {
		t.Fatal("first submission cannot hit the cache")
	}
	if !wait(servicePlatform(33), WithSearchConfig(cfg)).Status().CacheHit {
		t.Fatal("identical resubmission must hit the cache")
	}
	if wait(servicePlatform(33), WithSearchConfig(cfg), WithSeed(99)).Status().CacheHit {
		t.Fatal("a different seed must miss the cache")
	}
	tight := servicePlatform(33)
	tight.Constrain(alchemy.Constraints{Resources: alchemy.Resources{Rows: 8, Cols: 8}})
	if wait(tight, WithSearchConfig(cfg)).Status().CacheHit {
		t.Fatal("different constraints must miss the cache")
	}
	if wait(servicePlatform(34), WithSearchConfig(cfg)).Status().CacheHit {
		t.Fatal("different dataset content must miss the cache")
	}
}

func TestColdCacheMissLoadsDatasetOnce(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1, QueueDepth: 8, CacheEntries: 16})
	defer svc.Close()
	var loads atomic.Int32
	counting := alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		loads.Add(1)
		return sampleLoader(47).Load()
	})
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "count", Algorithms: []string{"dtree"}, DataLoader: counting})
	submit := func() *Job {
		t.Helper()
		p := alchemy.Taurus()
		p.Schedule(model)
		job, err := svc.Submit(context.Background(), p, WithSearchConfig(fastConfig()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return job
	}
	submit()
	// The fingerprint pass materializes the data and the load stage
	// reuses it: one Load per cold compile, not two.
	if got := loads.Load(); got != 1 {
		t.Fatalf("cold cache miss loaded the dataset %d times, want 1", got)
	}
	// Resubmitting the same model: memoized fingerprint + cache hit —
	// zero further loads.
	if !submit().Status().CacheHit {
		t.Fatal("resubmission must hit the cache")
	}
	if got := loads.Load(); got != 1 {
		t.Fatalf("cache hit loaded the dataset (total %d loads)", got)
	}
}

func TestQueuedJobCancelledBeforeDispatchNeverRuns(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1, QueueDepth: 8})
	release := make(chan struct{})
	started := make(chan struct{})
	m1 := alchemy.NewModel(alchemy.ModelSpec{
		Name: "blocker", Algorithms: []string{"dtree"}, DataLoader: blockingLoader(35, started, release)})
	p1 := alchemy.Taurus()
	p1.Schedule(m1)
	job1, err := svc.Submit(context.Background(), p1, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	<-started // job1 occupies the single dispatch slot

	var ran atomic.Bool
	spy := alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		ran.Store(true)
		return sampleLoader(36).Load()
	})
	m2 := alchemy.NewModel(alchemy.ModelSpec{
		Name: "queued", Algorithms: []string{"dtree"}, DataLoader: spy})
	p2 := alchemy.Taurus()
	p2.Schedule(m2)
	job2, err := svc.Submit(context.Background(), p2, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if st := job2.Status().State; st != JobQueued {
		t.Fatalf("job2 state %q, want queued", st)
	}
	job2.Cancel()
	if st := job2.Status().State; st != JobCancelled {
		t.Fatalf("job2 state after cancel %q, want cancelled", st)
	}
	if _, err := job2.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("job2 terminal error %v must wrap context.Canceled", err)
	}

	close(release)
	if _, err := job1.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Fatal("cancelled queued job's loader ran")
	}
}

func TestServiceCloseDrainsRunningAndFailsQueued(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1, QueueDepth: 8})
	release := make(chan struct{})
	started := make(chan struct{})
	m1 := alchemy.NewModel(alchemy.ModelSpec{
		Name: "running", Algorithms: []string{"dtree"}, DataLoader: blockingLoader(37, started, release)})
	p1 := alchemy.Taurus()
	p1.Schedule(m1)
	job1, err := svc.Submit(context.Background(), p1, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var ran atomic.Bool
	spy := alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		ran.Store(true)
		return sampleLoader(38).Load()
	})
	m2 := alchemy.NewModel(alchemy.ModelSpec{
		Name: "doomed", Algorithms: []string{"dtree"}, DataLoader: spy})
	p2 := alchemy.Taurus()
	p2.Schedule(m2)
	job2, err := svc.Submit(context.Background(), p2, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan struct{})
	go func() {
		_ = svc.Close()
		close(closed)
	}()

	// The queued job fails promptly with a wrapped ErrServiceClosed even
	// while the running job drains.
	if _, err := job2.Wait(context.Background()); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("queued job error %v must wrap ErrServiceClosed", err)
	}
	if st := job2.Status().State; st != JobFailed {
		t.Fatalf("queued job state %q, want failed", st)
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a compilation was still running")
	case <-time.After(20 * time.Millisecond):
	}

	close(release)
	<-closed
	pipe, err := job1.Wait(context.Background())
	if err != nil {
		t.Fatalf("running job must drain to completion: %v", err)
	}
	if pipe == nil || job1.Status().State != JobDone {
		t.Fatal("drained job must finish with its pipeline")
	}
	if ran.Load() {
		t.Fatal("queued job's loader ran after Close")
	}
	if _, err := svc.Submit(context.Background(), servicePlatform(39), WithSearchConfig(fastConfig())); !errors.Is(err, ErrServiceClosed) {
		t.Fatalf("submit after Close = %v, want ErrServiceClosed", err)
	}
}

func TestSubmitQueueFull(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1, QueueDepth: 1})
	release := make(chan struct{})
	started := make(chan struct{})
	m := alchemy.NewModel(alchemy.ModelSpec{
		Name: "hold", Algorithms: []string{"dtree"}, DataLoader: blockingLoader(40, started, release)})
	p := alchemy.Taurus()
	p.Schedule(m)
	if _, err := svc.Submit(context.Background(), p, WithSearchConfig(fastConfig())); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := svc.Submit(context.Background(), servicePlatform(41), WithSearchConfig(fastConfig())); err != nil {
		t.Fatalf("backlog submission must be admitted: %v", err)
	}
	if _, err := svc.Submit(context.Background(), servicePlatform(42), WithSearchConfig(fastConfig())); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-depth submission = %v, want ErrQueueFull", err)
	}
	close(release)
	svc.Close()
}

// TestServiceRetainsJobs: past the retention cap, an admission forgets
// the oldest terminal jobs, never a live one however old, and Jobs keeps
// admission order.
func TestServiceRetainsJobs(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 3, QueueDepth: -1, RetainJobs: 3})
	defer svc.Close()
	release := make(chan struct{})
	submit := func(p *alchemy.Platform) *Job {
		t.Helper()
		job, err := svc.Submit(context.Background(), p, WithSearchConfig(fastConfig()))
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	blocker := func(seed int64) *Job {
		started := make(chan struct{})
		m := alchemy.NewModel(alchemy.ModelSpec{
			Name: "hold", Algorithms: []string{"dtree"}, DataLoader: blockingLoader(seed, started, release)})
		p := alchemy.Taurus()
		p.Schedule(m)
		job := submit(p)
		<-started
		return job
	}
	done := func() *Job {
		t.Helper()
		job := submit(servicePlatform(45))
		if _, err := job.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		return job
	}
	expect := func(step string, want ...*Job) {
		t.Helper()
		var got, ids []string
		for _, j := range svc.Jobs() {
			got = append(got, j.ID())
		}
		for _, j := range want {
			ids = append(ids, j.ID())
		}
		if strings.Join(got, " ") != strings.Join(ids, " ") {
			t.Fatalf("%s: Jobs() = %v, want %v", step, got, ids)
		}
	}

	b1 := blocker(46)
	t2 := done()
	b3 := blocker(47)
	expect("at the cap", b1, t2, b3)
	t4 := done()
	expect("the oldest terminal job goes, live ones stay", b1, b3, t4)
	if _, ok := svc.Job(t2.ID()); ok {
		t.Fatalf("%s still reachable after it was pruned", t2.ID())
	}
	t5 := done()
	expect("the next oldest terminal job goes", b1, b3, t5)
	close(release)
	for _, b := range []*Job{b1, b3} {
		if _, err := b.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	t6 := done()
	expect("a finished blocker is the oldest terminal job", b3, t5, t6)
	t7 := done()
	expect("and so is the second", t5, t6, t7)
}

func TestJobEventsReplayAndPlatformStamp(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 2, QueueDepth: 8})
	defer svc.Close()
	job, err := svc.Submit(context.Background(), servicePlatform(43), WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := job.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Subscribing after completion replays the full log, then closes.
	var events []Event
	for ev := range job.Events() {
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("completed job must replay its events")
	}
	doneByStage := map[Stage]int{}
	for _, ev := range events {
		if ev.Platform != "taurus" {
			t.Fatalf("event %+v missing its platform stamp", ev)
		}
		if ev.Done && ev.Candidate == "" {
			doneByStage[ev.Stage]++
		}
	}
	for _, stage := range []Stage{StageLoad, StageSearch, StageCodegen} {
		if doneByStage[stage] != 1 {
			t.Fatalf("stage %s completions = %d, want 1 (%v)", stage, doneByStage[stage], doneByStage)
		}
	}
	st := job.Status()
	if st.Stages[StageSearch].Done < 1 || st.Stages[StageLoad].Done != 1 {
		t.Fatalf("status stage snapshot wrong: %+v", st.Stages)
	}
}

func TestSpecHashSensitivity(t *testing.T) {
	cfg := fastConfig()
	h := func(p *alchemy.Platform, seed int64) string {
		t.Helper()
		c := cfg
		c.Seed = seed
		hash, err := SpecHash(p, c)
		if err != nil {
			t.Fatal(err)
		}
		return hash
	}
	a := h(servicePlatform(44), 1)
	if b := h(servicePlatform(44), 1); b != a {
		t.Fatal("identical declarations must hash identically")
	}
	if b := h(servicePlatform(44), 2); b == a {
		t.Fatal("seed must change the hash")
	}
	if b := h(servicePlatform(45), 1); b == a {
		t.Fatal("dataset content must change the hash")
	}
	tight := servicePlatform(44)
	tight.Constrain(alchemy.Constraints{Resources: alchemy.Resources{Rows: 4}})
	if b := h(tight, 1); b == a {
		t.Fatal("constraints must change the hash")
	}
	svm := servicePlatform(44, "svm")
	if b := h(svm, 1); b == a {
		t.Fatal("algorithm list must change the hash")
	}
}

func TestGenerateAcrossEventsCarryPlatform(t *testing.T) {
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "sweep_ev", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(46)})
	p := alchemy.Taurus()
	p.Schedule(model)
	var mu sync.Mutex
	seen := map[string]bool{}
	_, err := GenerateAcross(context.Background(), p, []string{"taurus", "tofino"},
		WithSearchConfig(fastConfig()), WithProgress(func(ev Event) {
			mu.Lock()
			seen[ev.Platform] = true
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if !seen["taurus"] || !seen["tofino"] {
		t.Fatalf("sweep events must carry each platform, saw %v", seen)
	}
	if seen[""] {
		t.Fatal("sweep emitted unstamped events")
	}
}
