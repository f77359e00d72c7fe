package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fixed"
	"repro/internal/ir"
)

// constModel always classifies `class`, regardless of input — revisions
// built from distinct constants make routing decisions observable. It
// declares four classes, or as many as its constant needs.
func constModel(class int) *ir.Model {
	return &ir.Model{
		Kind: ir.DTree, Name: "const", Inputs: 2, Outputs: max(4, class+1), Format: fixed.Q8_8,
		Tree: &ir.TreeNode{Feature: -1, Class: class},
	}
}

func mustEndpoint(t *testing.T, class int, cfg ServingConfig) *Endpoint {
	t.Helper()
	ep, err := NewEndpoint("ep", constModel(class), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	return ep
}

func TestEndpointLifecycle(t *testing.T) {
	ep := mustEndpoint(t, 0, ServingConfig{BatchSize: 8})
	if ep.Name() != "ep" {
		t.Fatalf("name %q", ep.Name())
	}
	if c, err := ep.Classify([]float64{1, 1}); err != nil || c != 0 {
		t.Fatalf("stable classify: %d %v", c, err)
	}
	if st, ca, pct, sh := ep.View(); st != 1 || ca != 0 || pct != 0 || sh != 0 {
		t.Fatalf("initial view: %d %d %d %d", st, ca, pct, sh)
	}

	// Lifecycle errors before any rollout.
	if err := ep.Promote(); !errors.Is(err, ErrNoRollout) {
		t.Fatalf("promote without rollout: %v", err)
	}
	if err := ep.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback without history: %v", err)
	}

	// Rollout validation.
	if _, err := ep.Rollout(constModel(1), RolloutConfig{CanaryPercent: 101}); err == nil {
		t.Fatal("canary 101 must be rejected")
	}
	if _, err := ep.Rollout(constModel(1), RolloutConfig{CanaryPercent: 10, Shadow: true}); err == nil {
		t.Fatal("canary+shadow must be rejected")
	}
	if _, err := ep.Rollout(nil, RolloutConfig{}); err == nil {
		t.Fatal("nil model rollout must be rejected")
	}
	wide := constModel(1)
	wide.Inputs = 5
	if _, err := ep.Rollout(wide, RolloutConfig{}); err == nil {
		t.Fatal("feature-width mismatch must be rejected at rollout time")
	}

	rev, err := ep.Rollout(constModel(1), RolloutConfig{CanaryPercent: 100})
	if err != nil || rev.ID != 2 {
		t.Fatalf("rollout: %+v %v", rev, err)
	}
	if _, err := ep.Rollout(constModel(2), RolloutConfig{}); !errors.Is(err, ErrRolloutActive) {
		t.Fatalf("second rollout: %v", err)
	}
	if st, ca, pct, _ := ep.View(); st != 1 || ca != 2 || pct != 100 {
		t.Fatalf("rollout view: %d %d %d", st, ca, pct)
	}
	// 100% canary: every request routes to revision 2.
	if c, err := ep.Classify([]float64{1, 1}); err != nil || c != 1 {
		t.Fatalf("canary-100 classify: %d %v", c, err)
	}

	if err := ep.Promote(); err != nil {
		t.Fatal(err)
	}
	if st, ca, _, _ := ep.View(); st != 2 || ca != 0 {
		t.Fatalf("promoted view: %d %d", st, ca)
	}
	if c, err := ep.Classify([]float64{1, 1}); err != nil || c != 1 {
		t.Fatalf("post-promote classify: %d %v", c, err)
	}

	// Rollback returns all traffic to the previous stable, which stayed
	// warm through its retirement.
	if err := ep.Rollback(); err != nil {
		t.Fatal(err)
	}
	if st, _, _, _ := ep.View(); st != 1 {
		t.Fatalf("rollback view: stable %d", st)
	}
	if c, err := ep.Classify([]float64{1, 1}); err != nil || c != 0 {
		t.Fatalf("post-rollback classify: %d %v", c, err)
	}
	if err := ep.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("rollback past history: %v", err)
	}

	// Aborting an in-progress rollout is also a rollback.
	if _, err := ep.Rollout(constModel(3), RolloutConfig{CanaryPercent: 100}); err != nil {
		t.Fatal(err)
	}
	if err := ep.Rollback(); err != nil {
		t.Fatal(err)
	}
	if c, err := ep.Classify([]float64{1, 1}); err != nil || c != 0 {
		t.Fatalf("post-abort classify: %d %v", c, err)
	}

	st := ep.Stats()
	if len(st.Revisions) != 3 {
		t.Fatalf("want 3 revisions, got %+v", st.Revisions)
	}
	if st.Revisions[0].State != RevStable || st.Revisions[1].State != RevRetired || st.Revisions[2].State != RevRetired {
		t.Fatalf("revision states: %+v", st.Revisions)
	}
	if st.Merged.Accepted != st.Merged.Completed || st.Merged.Dropped != 0 {
		t.Fatalf("merged accounting: %+v", st.Merged)
	}
	var sum uint64
	for _, r := range st.Revisions {
		sum += r.Stats.Completed
	}
	if sum != st.Merged.Completed {
		t.Fatalf("merged completed %d != per-revision sum %d", st.Merged.Completed, sum)
	}
}

// TestEndpointSplitterDeterministic pins the canary splitter's contract:
// the stable/canary partition is a pure function of the request sequence
// number, so two identical replays split identically, and the split is
// close to the requested share.
func TestEndpointSplitterDeterministic(t *testing.T) {
	const n, pct = 2000, 30
	run := func() []int {
		ep := mustEndpoint(t, 0, ServingConfig{BatchSize: 1})
		if _, err := ep.Rollout(constModel(1), RolloutConfig{CanaryPercent: pct}); err != nil {
			t.Fatal(err)
		}
		got := make([]int, n)
		for i := range got {
			c, err := ep.Classify([]float64{0, 0})
			if err != nil {
				t.Fatal(err)
			}
			got[i] = c
		}
		return got
	}
	a, b := run(), run()
	canary := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d routed differently across identical replays: %d vs %d", i, a[i], b[i])
		}
		want := 0
		if splitmix64(uint64(i))%100 < pct {
			want = 1
		}
		if a[i] != want {
			t.Fatalf("request %d: class %d, splitter says %d", i, a[i], want)
		}
		canary += a[i]
	}
	if frac := float64(canary) / n; frac < 0.25 || frac > 0.35 {
		t.Fatalf("canary share %.3f far from %d%%", frac, pct)
	}
}

// TestEndpointShadowDivergence covers the mirror: callers only ever see
// the stable answer while every request is re-scored on the shadow and
// the per-class-pair divergence matrix fills in.
func TestEndpointShadowDivergence(t *testing.T) {
	ep := mustEndpoint(t, 0, ServingConfig{BatchSize: 4})
	if _, err := ep.Rollout(constModel(2), RolloutConfig{Shadow: true}); err != nil {
		t.Fatal(err)
	}
	if _, _, _, sh := ep.View(); sh != 2 {
		t.Fatalf("shadow view: %d", sh)
	}
	const n = 50
	for i := 0; i < n; i++ {
		c, err := ep.Classify([]float64{1, 1})
		if err != nil || c != 0 {
			t.Fatalf("shadowed classify must return the stable answer: %d %v", c, err)
		}
	}
	waitFor(t, "mirrors drained", func() bool {
		d := ep.Stats().Shadow
		return d != nil && d.Mirrored+d.Shed == n
	})
	d := ep.Stats().Shadow
	if d.Revision != 2 || d.Agreed != 0 || d.Errors != 0 {
		t.Fatalf("divergence: %+v", d)
	}
	if d.Disagreed != d.Mirrored {
		t.Fatalf("const models must always disagree: %+v", d)
	}
	if d.Pairs[0][2] != d.Disagreed {
		t.Fatalf("pair (0,2) must carry every disagreement: %+v", d.Pairs)
	}

	// Promoting the shadow swaps it to stable; the report survives.
	if err := ep.Promote(); err != nil {
		t.Fatal(err)
	}
	if c, err := ep.Classify([]float64{1, 1}); err != nil || c != 2 {
		t.Fatalf("post-promote classify: %d %v", c, err)
	}
	if st := ep.Stats(); st.Shadow == nil || st.Shadow.Disagreed == 0 {
		t.Fatalf("divergence report must survive promotion: %+v", st.Shadow)
	}
}

// TestEndpointClassifyBatchSplits routes a batch through a live canary
// split per-request and reassembles results in input order.
func TestEndpointClassifyBatchSplits(t *testing.T) {
	ep := mustEndpoint(t, 0, ServingConfig{BatchSize: 8})
	if _, err := ep.Rollout(constModel(1), RolloutConfig{CanaryPercent: 50}); err != nil {
		t.Fatal(err)
	}
	xs := make([][]float64, 400)
	for i := range xs {
		xs[i] = []float64{0, 0}
	}
	classes, dropped, err := ep.ClassifyBatch(xs)
	if err != nil || dropped != 0 {
		t.Fatalf("batch: %v dropped=%d", err, dropped)
	}
	canary := 0
	for i, c := range classes {
		want := 0
		if splitmix64(uint64(i))%100 < 50 {
			want = 1
		}
		if c != want {
			t.Fatalf("batch item %d: class %d, splitter says %d", i, c, want)
		}
		canary += c
	}
	if canary == 0 || canary == len(xs) {
		t.Fatalf("50%% canary batch must split, got %d/%d", canary, len(xs))
	}
}

// TestEndpointHotSwapUnderFire is the zero-downtime contract under the
// race detector: clients hammer Classify while the lifecycle cycles
// rollout -> promote and rollout -> rollback. No request may be dropped
// or fail, a probe issued after Promote returns must be served by the
// promoted revision, and accepted must equal completed once quiet.
func TestEndpointHotSwapUnderFire(t *testing.T) {
	ep := mustEndpoint(t, 0, ServingConfig{BatchSize: 8, QueueDepth: 1 << 15})

	var stop atomic.Bool
	var failures atomic.Uint64
	var wg sync.WaitGroup
	const clients = 8
	wg.Add(clients)
	for w := 0; w < clients; w++ {
		go func() {
			defer wg.Done()
			x := []float64{1, 1}
			for !stop.Load() {
				c, err := ep.Classify(x)
				if err != nil || c < 0 || c > 3 {
					failures.Add(1)
					return
				}
			}
		}()
	}

	probe := func(want int, when string) {
		t.Helper()
		c, err := ep.Classify([]float64{1, 1})
		if err != nil {
			t.Fatalf("%s: probe failed: %v", when, err)
		}
		if c != want {
			t.Fatalf("%s: probe served by stale revision: class %d, want %d", when, c, want)
		}
	}

	cur := 0
	for i := 0; i < 12; i++ {
		next := (cur + 1) % 4
		if _, err := ep.Rollout(constModel(next), RolloutConfig{CanaryPercent: 25}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			// Abort this rollout: the stable must keep every request.
			if err := ep.Rollback(); err != nil {
				t.Fatal(err)
			}
			probe(cur, "after rollback")
			continue
		}
		if err := ep.Promote(); err != nil {
			t.Fatal(err)
		}
		// The zero-downtime assertion: any request issued after Promote
		// returns is served by the promoted revision.
		probe(next, "after promote")
		cur = next
	}

	stop.Store(true)
	wg.Wait()
	if f := failures.Load(); f != 0 {
		t.Fatalf("%d classify calls failed during hot swaps", f)
	}
	waitFor(t, "endpoint quiescent", func() bool {
		st := ep.Stats().Merged
		return st.Accepted == st.Completed
	})
	st := ep.Stats().Merged
	if st.Dropped != 0 || st.Errors != 0 {
		t.Fatalf("hot swap dropped traffic: %+v", st)
	}
}

// TestEndpointCanaryZeroBitIdentical pins the acceptance invariant: a 0%
// canary rollout routes nothing, so every classification is bit-identical
// to the stable-only path even while rollouts churn.
func TestEndpointCanaryZeroBitIdentical(t *testing.T) {
	ep := mustEndpoint(t, 1, ServingConfig{BatchSize: 8, QueueDepth: 1 << 15})

	var stop atomic.Bool
	var wrong atomic.Uint64
	var wg sync.WaitGroup
	wg.Add(4)
	for w := 0; w < 4; w++ {
		go func() {
			defer wg.Done()
			x := []float64{1, 1}
			for !stop.Load() {
				if c, err := ep.Classify(x); err != nil || c != 1 {
					wrong.Add(1)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		if _, err := ep.Rollout(constModel(2), RolloutConfig{CanaryPercent: 0}); err != nil {
			t.Fatal(err)
		}
		if err := ep.Rollback(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	if w := wrong.Load(); w != 0 {
		t.Fatalf("%d requests leaked to a 0%% canary", w)
	}
	st := ep.Stats()
	for _, r := range st.Revisions[1:] {
		if r.Stats.Accepted != 0 {
			t.Fatalf("0%% canary revision %d served traffic: %+v", r.ID, r.Stats)
		}
	}
}

// TestEndpointCloseDrains: Close stops intake across revisions, delivers
// accepted requests, and later calls fail with ErrClosed.
func TestEndpointCloseDrains(t *testing.T) {
	ep, err := NewEndpoint("drain", constModel(0), ServingConfig{BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 32; i++ {
		if _, err := ep.Classify([]float64{1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ep.Close(); err != nil {
		t.Fatal("Close must be idempotent")
	}
	if _, err := ep.Classify([]float64{1, 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close classify: %v", err)
	}
	if _, _, err := ep.ClassifyBatch([][]float64{{1, 1}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close batch: %v", err)
	}
	if _, err := ep.Rollout(constModel(1), RolloutConfig{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close rollout: %v", err)
	}
	if err := ep.Promote(); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close promote: %v", err)
	}
	st := ep.Stats()
	if st.Merged.Accepted != st.Merged.Completed || st.Merged.Completed != 32 {
		t.Fatalf("drain lost traffic: %+v", st.Merged)
	}
	if ep.Model() != nil {
		t.Fatal("closed endpoint must not expose a model")
	}
}

func TestEndpointNameRequired(t *testing.T) {
	if _, err := NewEndpoint("", constModel(0), ServingConfig{}); err == nil {
		t.Fatal("empty endpoint name must be rejected")
	}
	if _, err := NewEndpoint("x", nil, ServingConfig{}); err == nil {
		t.Fatal("nil model must be rejected")
	}
}
