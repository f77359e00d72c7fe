package serve

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/parallel"
)

// stepModel is a handcrafted decision stump: class 1 iff x[0] > 0.
func stepModel() *ir.Model {
	return &ir.Model{
		Kind: ir.DTree, Name: "step", Inputs: 2, Outputs: 2, Format: fixed.Q8_8,
		Tree: &ir.TreeNode{
			Feature: 0, Threshold: 0,
			Left:  &ir.TreeNode{Feature: -1, Class: 0},
			Right: &ir.TreeNode{Feature: -1, Class: 1},
		},
	}
}

// dnnModel is a handcrafted two-layer network, deterministic by
// construction (no training), for cross-shard determinism checks.
func dnnModel() *ir.Model {
	return &ir.Model{
		Kind: ir.DNN, Name: "net", Inputs: 3, Outputs: 2, Format: fixed.Q8_8,
		Layers: []ir.Layer{
			{In: 3, Out: 4, Activation: "relu",
				W: [][]float64{{0.5, -0.25, 0.125}, {-0.5, 0.75, 0.0625}, {0.25, 0.25, -0.75}, {1, -1, 0.5}},
				B: []float64{0.1, -0.1, 0.05, 0}},
			{In: 4, Out: 2, Activation: "softmax",
				W: [][]float64{{0.5, -0.5, 0.25, 0.125}, {-0.25, 0.5, -0.125, 0.75}},
				B: []float64{0.02, -0.02}},
		},
	}
}

func mustRuntime(t *testing.T, m *ir.Model, cfg ServingConfig) *Runtime {
	t.Helper()
	rt, err := New(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = rt.Close() })
	return rt
}

// mustRuntimeHook is mustRuntime with a test hook that runs before each
// span is classified, installed before any request is admitted.
func mustRuntimeHook(t *testing.T, m *ir.Model, cfg ServingConfig, hook func()) *Runtime {
	t.Helper()
	rt := mustRuntime(t, m, cfg)
	rt.testHook = hook
	return rt
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestClassifySingle(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{})
	if c, err := rt.Classify([]float64{1, 0}); err != nil || c != 1 {
		t.Fatalf("Classify(+)=%d, %v", c, err)
	}
	if c, err := rt.Classify([]float64{-1, 0}); err != nil || c != 0 {
		t.Fatalf("Classify(-)=%d, %v", c, err)
	}
	st := rt.Stats()
	if st.Accepted != 2 || st.Completed != 2 || st.PerClass[0] != 1 || st.PerClass[1] != 1 {
		t.Fatalf("stats after two singles: %+v", st)
	}
	if st.P50 == 0 || st.P99 == 0 || st.P99 < st.P50 {
		t.Fatalf("latency quantiles must be nonzero and ordered: %+v", st)
	}
}

// TestPartialBatchNeverWaits covers the latency bound: a partial batch
// (far below BatchSize) must be harvested immediately — the default
// greedy policy has no batching deadline to wait out, so requests
// complete at once and DeadlineFlushes stays zero.
func TestPartialBatchNeverWaits(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{
		Shards: 1, BatchSize: 64, QueueDepth: 64,
	})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := []float64{float64(i%2)*2 - 1, 0}
			if c, err := rt.Classify(x); err != nil || c != (i%2) {
				t.Errorf("request %d: class=%d err=%v", i, c, err)
			}
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("partial batch never harvested — the ring sweep is broken")
	}
	st := rt.Stats()
	if st.Completed != 3 || st.Batches < 1 {
		t.Fatalf("want 3 completions via >=1 harvest sweep, got %+v", st)
	}
	if st.DeadlineFlushes != 0 {
		t.Fatalf("the ring scheduler must never deadline-flush: %+v", st)
	}
	if st.MeanBatch > 3 {
		t.Fatalf("mean batch %v exceeds the 3 in-flight requests", st.MeanBatch)
	}
}

// TestQueueFullSheds covers backpressure: with the single shard held
// busy, the pipeline's bounded capacity must shed excess load with
// ErrOverloaded at the door — and every accepted request must still be
// delivered after the shard resumes.
func TestQueueFullSheds(t *testing.T) {
	release := make(chan struct{})
	var gate sync.Once
	rt := mustRuntimeHook(t, stepModel(), ServingConfig{
		Shards: 1, BatchSize: 1, QueueDepth: 1,
	}, func() { <-release })
	defer gate.Do(func() { close(release) })

	// With the harvester blocked, capacity is bounded by the ring's
	// credits: QueueDepth unharvested slots plus the requests already
	// detached into the harvester's sweep — at most a handful. 32
	// concurrent clients guarantee sheds.
	const clients = 32
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			_, err := rt.Classify([]float64{1, 0})
			errs <- err
		}()
	}
	// Every client has either been accepted or shed once the counters
	// account for all of them.
	waitFor(t, "all clients accounted", func() bool {
		st := rt.Stats()
		return st.Accepted+st.Dropped == clients
	})
	if st := rt.Stats(); st.Dropped < clients-4 {
		t.Fatalf("with capacity 4, want >= %d sheds, got %+v", clients-4, st)
	}
	gate.Do(func() { close(release) })
	var delivered, shed int
	for i := 0; i < clients; i++ {
		switch err := <-errs; {
		case err == nil:
			delivered++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	st := rt.Stats()
	if uint64(delivered) != st.Accepted || uint64(shed) != st.Dropped {
		t.Fatalf("delivered=%d shed=%d vs stats %+v", delivered, shed, st)
	}
	if st.Completed != st.Accepted {
		t.Fatalf("every accepted request must complete: %+v", st)
	}
}

// TestCloseDrainsAccepted covers drain-on-close: requests accepted
// before Close must all be classified and delivered, later requests must
// fail with ErrClosed, and Close must block until the drain is done.
func TestCloseDrainsAccepted(t *testing.T) {
	release := make(chan struct{})
	var gate sync.Once
	rt := mustRuntimeHook(t, stepModel(), ServingConfig{
		Shards: 2, BatchSize: 4, QueueDepth: 64,
	}, func() { <-release })
	defer gate.Do(func() { close(release) })

	const accepted = 8
	errs := make(chan error, accepted)
	for i := 0; i < accepted; i++ {
		go func() {
			_, err := rt.Classify([]float64{-1, 0})
			errs <- err
		}()
	}
	waitFor(t, "requests accepted", func() bool { return rt.Stats().Accepted == accepted })

	closed := make(chan struct{})
	go func() {
		_ = rt.Close()
		close(closed)
	}()
	// Close must not return while accepted requests are undelivered.
	select {
	case <-closed:
		t.Fatal("Close returned before the accepted requests drained")
	case <-time.After(50 * time.Millisecond):
	}
	gate.Do(func() { close(release) })
	for i := 0; i < accepted; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("accepted request lost in drain: %v", err)
		}
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close never returned")
	}
	if _, err := rt.Classify([]float64{1, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close Classify: %v, want ErrClosed", err)
	}
	if st := rt.Stats(); st.Completed != accepted {
		t.Fatalf("drain must deliver all %d accepted: %+v", accepted, st)
	}
}

// TestDeterministicAcrossShards pins the serving results to the
// bit-accurate InferQ reference at every parallelism level: 1 shard vs
// N shards, and a single-worker pool (the GOMAXPROCS=1 configuration)
// vs the default, must classify identically.
func TestDeterministicAcrossShards(t *testing.T) {
	m := dnnModel()
	rng := rand.New(rand.NewSource(7))
	const n = 256
	xs := make([][]float64, n)
	want := make([]int, n)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y, err := m.InferQ(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}

	check := func(label string, rt *Runtime) {
		t.Helper()
		classes, dropped, err := rt.ClassifyBatch(xs)
		if err != nil || dropped != 0 {
			t.Fatalf("%s: err=%v dropped=%d", label, err, dropped)
		}
		for i, c := range classes {
			if c != want[i] {
				t.Fatalf("%s: sample %d classified %d, InferQ says %d", label, i, c, want[i])
			}
		}
		_ = rt.Close()
	}

	for _, shards := range []int{1, 4} {
		rt, err := New(m, ServingConfig{Shards: shards, BatchSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		check("shards="+string(rune('0'+shards)), rt)
	}

	// Single-worker pool: the defaulted shard count collapses to 1, the
	// GOMAXPROCS=1 deployment shape.
	prev := parallel.Workers()
	parallel.SetWorkers(1)
	rt, err := New(m, ServingConfig{BatchSize: 16})
	parallel.SetWorkers(prev)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rt.rings); got != 1 {
		t.Fatalf("single-worker pool must default to 1 shard, got %d", got)
	}
	check("pool=1", rt)
}

func TestClassifyBatchMixedValidity(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{BatchSize: 8})
	classes, dropped, err := rt.ClassifyBatch([][]float64{
		{1, 0}, {0.5}, {-1, 0},
	})
	if dropped != 0 {
		t.Fatalf("dropped %d without backpressure", dropped)
	}
	if err == nil {
		t.Fatal("wrong-length vector must surface an error")
	}
	if classes[0] != 1 || classes[1] != -1 || classes[2] != 0 {
		t.Fatalf("classes %v", classes)
	}
	if st := rt.Stats(); st.Errors != 1 {
		t.Fatalf("inference errors must be counted: %+v", st)
	}
}

func TestGreedyModeBatchesUnderLoad(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{Shards: 1, BatchSize: 32, QueueDepth: 256})
	for i := 0; i < 50; i++ {
		if _, err := rt.Classify([]float64{1, 0}); err != nil {
			t.Fatal(err)
		}
	}
	st := rt.Stats()
	if st.Completed != 50 || st.Batches == 0 {
		t.Fatalf("greedy mode stats: %+v", st)
	}
	if st.DeadlineFlushes != 0 {
		t.Fatalf("greedy mode must never wait for a deadline: %+v", st)
	}
	// Single-client greedy batches never reach BatchSize, so they count
	// as neither full nor deadline flushes.
	if st.FullFlushes != 0 {
		t.Fatalf("partial greedy flushes must not count as full: %+v", st)
	}
}

func TestNewRejectsBadModel(t *testing.T) {
	if _, err := New(nil, ServingConfig{}); err == nil {
		t.Fatal("nil model must be rejected")
	}
	if _, err := New(&ir.Model{Kind: ir.DNN, Name: "bad", Inputs: 1, Outputs: 1}, ServingConfig{}); err == nil {
		t.Fatal("invalid model must be rejected at deploy time")
	}
}

func TestReplay(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{BatchSize: 16})
	rng := rand.New(rand.NewSource(3))
	const n = 500
	xs := make([][]float64, n)
	labels := make([]int, n)
	for i := range xs {
		v := rng.NormFloat64()
		xs[i] = []float64{v, rng.NormFloat64()}
		// Match the quantized decision boundary exactly: class 1 iff the
		// quantized feature exceeds 0.
		if fixed.Q8_8.Quantize(v) > 0 {
			labels[i] = 1
		}
	}
	res, err := Replay(rt, xs, labels, runtime.GOMAXPROCS(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != n || res.Delivered+res.Dropped+res.Errors != n {
		t.Fatalf("replay accounting: %+v", res)
	}
	if res.Delivered == 0 || res.Accuracy != 1.0 {
		t.Fatalf("stump must be perfect on its own boundary: %+v", res)
	}
	if res.Rate <= 0 {
		t.Fatalf("rate must be positive: %+v", res)
	}
	st := rt.Stats()
	if st.Completed < uint64(res.Delivered) {
		t.Fatalf("stats completed %d < delivered %d", st.Completed, res.Delivered)
	}

	if _, err := Replay(nil, xs, labels, 2); err == nil {
		t.Fatal("nil classifier must error")
	}
	if _, err := Replay(rt, xs, labels[:3], 2); err == nil {
		t.Fatal("mismatched labels must error")
	}
	if _, err := ReplayRun(context.Background(), rt, xs, labels, 2, make([]int, 3)); err == nil {
		t.Fatal("mismatched record must error")
	}
}

// TestReplayRunRecordsClasses: the record array carries the class of
// every issued sample, indexed by trace position.
func TestReplayRunRecordsClasses(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{BatchSize: 8})
	xs := [][]float64{{1, 0}, {-1, 0}, {1, 0}, {-1, 0}}
	record := []int{-2, -2, -2, -2}
	res, err := ReplayRun(context.Background(), rt, xs, nil, 2, record)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued != 4 || res.Delivered != 4 {
		t.Fatalf("replay result: %+v", res)
	}
	want := []int{1, 0, 1, 0}
	for i, c := range record {
		if c != want[i] {
			t.Fatalf("record %v, want %v", record, want)
		}
	}
}

// TestReplayBurst: the open-loop pacer keeps ReplayRun's accounting and
// recording contract while reporting the offered rate, and its spikes
// actually shed when they slam a tiny ring guarded by a slow classify.
func TestReplayBurst(t *testing.T) {
	t.Run("accounting", func(t *testing.T) {
		rt := mustRuntime(t, stepModel(), ServingConfig{BatchSize: 8})
		const n = 64
		xs := make([][]float64, n)
		labels := make([]int, n)
		for i := range xs {
			xs[i] = []float64{float64(i%2)*2 - 1, 0}
			labels[i] = i % 2
		}
		record := make([]int, n)
		// A high mean rate: the whole trace is offered almost at once, so
		// the test measures accounting, not pacing.
		res, err := ReplayBurst(context.Background(), rt, xs, labels, 4, record, BurstOptions{MeanRate: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if res.Issued != n || res.Delivered+res.Dropped+res.Errors != n {
			t.Fatalf("burst accounting: %+v", res)
		}
		if res.OfferedRate <= 0 {
			t.Fatalf("offered rate must be reported: %+v", res)
		}
		for i, c := range record {
			if c != -1 && c != labels[i] {
				t.Fatalf("record[%d]=%d, want %d or -1 (shed)", i, c, labels[i])
			}
		}
		if res.Delivered > 0 && res.Accuracy != 1.0 {
			t.Fatalf("stump must be perfect on delivered traffic: %+v", res)
		}
	})

	t.Run("sheds-under-spike", func(t *testing.T) {
		rt := mustRuntimeHook(t, stepModel(), ServingConfig{
			Shards: 1, QueueDepth: 1, BatchSize: 1,
		}, func() { time.Sleep(100 * time.Microsecond) })
		const n = 256
		xs := make([][]float64, n)
		for i := range xs {
			xs[i] = []float64{1, 0}
		}
		res, err := ReplayBurst(context.Background(), rt, xs, nil, 8, nil, BurstOptions{MeanRate: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		if res.Dropped == 0 {
			t.Fatalf("a 100× spike against a 1-slot ring must shed: %+v", res)
		}
		if res.Delivered == 0 {
			t.Fatalf("the quiet phase must still deliver: %+v", res)
		}
		st := rt.Stats()
		if st.Accepted != st.Completed {
			t.Fatalf("accepted traffic must drain: %+v", st)
		}
	})

	t.Run("validation", func(t *testing.T) {
		rt := mustRuntime(t, stepModel(), ServingConfig{})
		xs := [][]float64{{1, 0}}
		if _, err := ReplayBurst(context.Background(), rt, xs, nil, 1, nil, BurstOptions{}); err == nil {
			t.Fatal("zero mean rate must be rejected")
		}
		if _, err := ReplayBurst(context.Background(), nil, xs, nil, 1, nil, BurstOptions{MeanRate: 1}); err == nil {
			t.Fatal("nil classifier must be rejected")
		}
		if _, err := ReplayBurst(context.Background(), rt, xs, []int{0, 1}, 1, nil, BurstOptions{MeanRate: 1}); err == nil {
			t.Fatal("mismatched labels must be rejected")
		}
	})
}

// TestReplayRunInterrupted covers graceful drain: cancelling the context
// stops the clients from issuing, but every request already issued is
// still delivered — the replayer never abandons accepted traffic.
func TestReplayRunInterrupted(t *testing.T) {
	release := make(chan struct{})
	var gate sync.Once
	var issued atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	rt := mustRuntimeHook(t, stepModel(), ServingConfig{
		Shards: 1, BatchSize: 1, QueueDepth: 64,
	}, func() {
		// Interrupt the replay while requests are in flight, then
		// let the shard keep serving.
		if issued.Add(1) == 3 {
			cancel()
		}
		gate.Do(func() { close(release) })
		<-release
	})
	defer cancel()
	const n = 10000
	xs := make([][]float64, n)
	labels := make([]int, n)
	for i := range xs {
		xs[i] = []float64{1, 0}
		labels[i] = 1
	}
	record := make([]int, n)
	res, err := ReplayRun(ctx, rt, xs, labels, 4, record)
	if err != nil {
		t.Fatal(err)
	}
	if res.Issued >= n {
		t.Fatalf("interrupt must stop issuance early: %+v", res)
	}
	if res.Delivered+res.Dropped+res.Errors != res.Issued {
		t.Fatalf("issued requests must all be accounted: %+v", res)
	}
	st := rt.Stats()
	if st.Accepted != st.Completed {
		t.Fatalf("accepted requests must drain: %+v", st)
	}
	if uint64(res.Delivered) != st.Completed {
		t.Fatalf("delivered %d vs completed %d", res.Delivered, st.Completed)
	}
}
