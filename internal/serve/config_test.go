package serve

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/parallel"
)

func delayNS(d time.Duration) *int64 {
	ns := int64(d)
	return &ns
}

// TestServingConfigZeroValueIsDefaults covers the API contract that a
// zero ServingConfig means the current defaults, and that a runtime
// built from it runs exactly the bounds Resolved reports.
func TestServingConfigZeroValueIsDefaults(t *testing.T) {
	var c ServingConfig
	if err := c.Validate(); err != nil {
		t.Fatalf("zero config must validate: %v", err)
	}
	r := c.Resolved()
	if r.Shards != parallel.Workers() || r.BatchSize != 64 || r.QueueDepth != 1024 ||
		r.RetainRetired != 2 || r.MaxDelayNS != nil || r.AdaptiveFlush {
		t.Fatalf("zero ServingConfig resolved %+v", r)
	}
	rt := mustRuntime(t, stepModel(), c)
	if len(rt.rings) != r.Shards || rt.batchSize != r.BatchSize || rt.flush != FlushGreedy || rt.maxDelay != 0 ||
		int(rt.rings[0].cap)*len(rt.rings) < r.QueueDepth {
		t.Fatalf("runtime from the zero config: %d shards, batch %d, flush %v/%v, ring %d",
			len(rt.rings), rt.batchSize, rt.flush, rt.maxDelay, rt.rings[0].cap)
	}
}

func TestServingConfigValidateListsAllViolations(t *testing.T) {
	c := ServingConfig{
		Version:       7,
		Shards:        -3,
		BatchSize:     1 << 20,
		MaxDelayNS:    delayNS(time.Hour),
		QueueDepth:    -1,
		RetainRetired: -9,
	}
	err := c.Validate()
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("want *ConfigError, got %v", err)
	}
	if len(ce.Violations) != 6 {
		t.Fatalf("want all 6 violations listed, got %d: %v", len(ce.Violations), ce.Violations)
	}
	for _, field := range []string{"version", "shards", "batch_size", "max_delay_ns", "queue_depth", "retain_retired"} {
		if !strings.Contains(err.Error(), field) {
			t.Fatalf("violation list must name %q: %v", field, err)
		}
	}
}

// TestServingConfigCanonical covers canonical marshalling: the version
// is stamped, the bytes are deterministic, and ParseConfig round-trips
// them (rejecting unknown fields).
func TestServingConfigCanonical(t *testing.T) {
	c := ServingConfig{Shards: 2, BatchSize: 32, MaxDelayNS: delayNS(0), AdaptiveFlush: true}
	a, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("canonical bytes must be deterministic:\n%s\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"version":1`)) {
		t.Fatalf("canonical form must stamp version %d: %s", ConfigVersion, a)
	}
	if !bytes.Contains(a, []byte(`"max_delay_ns":0`)) {
		t.Fatalf("explicit zero delay must survive marshalling: %s", a)
	}
	rt, err := ParseConfig(a)
	if err != nil {
		t.Fatal(err)
	}
	rt2, err := rt.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, rt2) {
		t.Fatalf("round-trip not byte-identical:\n%s\n%s", a, rt2)
	}
	if _, err := ParseConfig([]byte(`{"batch_sise": 32}`)); err == nil {
		t.Fatal("typoed field must be rejected, not silently defaulted")
	}
	if _, err := ParseConfig([]byte(`{"shards": -1}`)); err == nil {
		t.Fatal("ParseConfig must validate")
	}
}

// TestServingConfigOptionsPresence covers the presence-aware delay
// through resolution: an absent delay stays absent (greedy), an explicit
// zero stays a present zero, and only adaptive flush fills the default
// bound — the one case where absent and 500µs mean the same.
func TestServingConfigOptionsPresence(t *testing.T) {
	r := ServingConfig{}.Resolved()
	if r.MaxDelayNS != nil {
		t.Fatalf("absent max_delay_ns must stay absent, not become a hold: %+v", r)
	}
	r = ServingConfig{MaxDelayNS: delayNS(0)}.Resolved()
	if r.MaxDelayNS == nil || *r.MaxDelayNS != 0 {
		t.Fatalf("explicit zero delay lost: %+v", r)
	}
	r = ServingConfig{AdaptiveFlush: true}.Resolved()
	if r.MaxDelayNS == nil || time.Duration(*r.MaxDelayNS) != 500*time.Microsecond {
		t.Fatalf("adaptive flush must resolve the default bound: %+v", r)
	}
	if r.Shards <= 0 || r.BatchSize != 64 || r.QueueDepth != 1024 {
		t.Fatalf("resolved defaults wrong: %+v", r)
	}
}

// TestServingConfigFlush pins the one flush-policy table, and that
// resolving a document never changes its row.
func TestServingConfigFlush(t *testing.T) {
	ms := time.Millisecond
	for _, c := range []struct {
		cfg    ServingConfig
		policy FlushPolicy
		bound  time.Duration
	}{
		{ServingConfig{}, FlushGreedy, 0},
		{ServingConfig{MaxDelayNS: delayNS(0)}, FlushGreedy, 0},
		{ServingConfig{MaxDelayNS: delayNS(-1)}, FlushGreedy, 0},
		{ServingConfig{MaxDelayNS: delayNS(ms)}, FlushFixed, ms},
		{ServingConfig{AdaptiveFlush: true}, FlushAdaptive, 500 * time.Microsecond},
		{ServingConfig{AdaptiveFlush: true, MaxDelayNS: delayNS(ms)}, FlushAdaptive, ms},
		{ServingConfig{AdaptiveFlush: true, MaxDelayNS: delayNS(0)}, FlushGreedy, 0},
	} {
		for _, cfg := range []ServingConfig{c.cfg, c.cfg.Resolved()} {
			if p, b := cfg.Flush(); p != c.policy || b != c.bound {
				t.Errorf("%+v: flush %v/%v, want %v/%v", cfg, p, b, c.policy, c.bound)
			}
		}
	}
}

// TestRolloutExplicitGreedyDelay is the regression test for the
// inheritance bug: the rollout merge once treated a zero delay as
// "inherit", so a rollout could never request an explicit greedy flush
// on an endpoint whose delay was nonzero.
func TestRolloutExplicitGreedyDelay(t *testing.T) {
	ep, err := NewEndpoint("greedy", stepModel(), ServingConfig{
		Shards: 1, QueueDepth: 64, MaxDelayNS: delayNS(2 * time.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	cfg := ServingConfig{MaxDelayNS: delayNS(0)}
	rev, err := ep.Rollout(stepModel(), RolloutConfig{CanaryPercent: 50, Serving: cfg})
	if err != nil {
		t.Fatal(err)
	}
	if got := rev.Config(); got.MaxDelayNS == nil || *got.MaxDelayNS != 0 {
		t.Fatalf("explicit greedy (max_delay_ns 0) swallowed by inheritance: %+v", got)
	}
	if p, _ := rev.Config().Flush(); p != FlushGreedy {
		t.Fatalf("explicit greedy rollout runs %v", p)
	}
	// Unset delay must still inherit the endpoint default.
	if err := ep.Rollback(); err != nil {
		t.Fatal(err)
	}
	rev2, err := ep.Rollout(stepModel(), RolloutConfig{CanaryPercent: 50})
	if err != nil {
		t.Fatal(err)
	}
	if p, b := rev2.Config().Flush(); p != FlushFixed || b != 2*time.Millisecond {
		t.Fatalf("unset delay must inherit endpoint default: %v/%v from %+v", p, b, rev2.Config())
	}
}

// TestReconfigure covers the atomic config-apply path: one revision
// bump, traffic served throughout, new defaults visible, previous
// bounds one Rollback away.
func TestReconfigure(t *testing.T) {
	ep, err := NewEndpoint("cfg", stepModel(), ServingConfig{Shards: 1, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer ep.Close()

	cfg := ServingConfig{BatchSize: 16, QueueDepth: 128, MaxDelayNS: delayNS(time.Millisecond)}
	rev, err := ep.Reconfigure(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rev.ID != 2 || rev.state != RevStable {
		t.Fatalf("reconfigure must promote a fresh revision: id=%d state=%v", rev.ID, rev.state)
	}
	// The document is installed as it is: complete, nothing inherited
	// (Shards stays 0, the machine default, not the old 1).
	want, _ := cfg.Canonical()
	for what, got := range map[string]ServingConfig{"endpoint": ep.Config(), "revision": rev.Config()} {
		if b, _ := got.Canonical(); string(b) != string(want) {
			t.Fatalf("%s document %s, want %s", what, b, want)
		}
	}
	if c, err := ep.Classify([]float64{1, 0}); err != nil || c != 1 {
		t.Fatalf("classify after reconfigure: class=%d err=%v", c, err)
	}
	// The old bounds are one Rollback away.
	if err := ep.Rollback(); err != nil {
		t.Fatal(err)
	}
	stable, _, _, _ := ep.View()
	if stable != 1 {
		t.Fatalf("rollback after reconfigure must restore revision 1, got %d", stable)
	}
	// A reconfigure during an active rollout must refuse.
	if _, err := ep.Rollout(stepModel(), RolloutConfig{CanaryPercent: 10}); err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Reconfigure(ServingConfig{}); !errors.Is(err, ErrRolloutActive) {
		t.Fatalf("want ErrRolloutActive, got %v", err)
	}
}
