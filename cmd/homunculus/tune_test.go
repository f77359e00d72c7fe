package main

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/tune"
)

// TestRunTuneSpec drives `-tune` end to end on the tiny ad spec: the
// run compiles, replays candidates, leaves a report with a non-empty
// frontier and a feasible chosen config in the test seam, and the
// verification replay meets the (generous) SLO.
func TestRunTuneSpec(t *testing.T) {
	if testing.Short() {
		t.Skip("replay tuning is wall-clock bound")
	}
	cfg := adConfig(t, replaySettings{samples: 200, clients: 2, shards: 2})
	cfg.tune = tuneSettings{enabled: true, slo: "p99<=500ms", budget: 4, seed: 7}
	got, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.tune == nil {
		t.Fatal("tuning left no report")
	}
	rep := got.tune.report
	if rep == nil || len(rep.Front) == 0 || !rep.Chosen.Feasible {
		t.Fatalf("tune report: %+v", rep)
	}
	if _, err := rep.Chosen.Config.Canonical(); err != nil {
		t.Fatalf("chosen config must be canonical: %v", err)
	}
	if got.tune.verify.Delivered == 0 {
		t.Fatal("verification replay left no metrics")
	}
	if got.tune.verify.P99 > 500*time.Millisecond {
		t.Fatalf("verification replay missed the SLO: %+v", got.tune.verify)
	}
}

// TestRunTuneInfeasibleSLO: an SLO no configuration can meet surfaces
// the typed infeasibility error, not a junk config.
func TestRunTuneInfeasibleSLO(t *testing.T) {
	if testing.Short() {
		t.Skip("replay tuning is wall-clock bound")
	}
	cfg := adConfig(t, replaySettings{samples: 120, clients: 2, shards: 1})
	cfg.tune = tuneSettings{enabled: true, slo: "p99<=1ns", budget: 4, seed: 7}
	got, err := run(context.Background(), cfg)
	if !errors.Is(err, tune.ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if got.tune != nil {
		t.Fatal("infeasible run must not leave a report")
	}
}

// TestRunTuneBadSLO: a malformed -slo fails before any replay.
func TestRunTuneBadSLO(t *testing.T) {
	cfg := adConfig(t, replaySettings{})
	cfg.tune = tuneSettings{enabled: true, slo: "p99>=2ms"}
	if _, err := run(context.Background(), cfg); err == nil {
		t.Fatal("reversed latency bound must fail")
	}
}

// TestRunReplayAdaptiveByteIdentical: -adaptive only changes flush
// timing — a fixed-seed replay must digest byte-identically to the
// default greedy path.
func TestRunReplayAdaptiveByteIdentical(t *testing.T) {
	cfg := adConfig(t, replaySettings{deploy: true, samples: 400, clients: 4, batch: 16})
	got, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	base := got.replay
	if base == nil || base.digest == "" {
		t.Fatalf("baseline replay report: %+v", base)
	}

	cfg.replay.adaptive, cfg.replay.delay = true, time.Millisecond
	if got, err = run(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	adaptive := got.replay
	if adaptive == nil || adaptive.digest != base.digest {
		t.Fatalf("adaptive flush diverged:\n  greedy:   %s\n  adaptive: %s", base.digest, adaptive.digest)
	}
	if adaptive.result.Dropped != 0 || adaptive.final.Accepted != adaptive.final.Completed {
		t.Fatalf("adaptive replay dropped traffic: %+v", adaptive.final)
	}
}

// TestReplayEndpointOptions: the replay flags build one ServingConfig,
// with max_delay_ns present iff -batch-delay was given — so the default
// replay is greedy and a positive -batch-delay holds, -adaptive or not.
func TestReplayEndpointOptions(t *testing.T) {
	for _, tc := range []struct {
		in   replaySettings
		want string
	}{
		{replaySettings{}, `{"version":1}`},
		{replaySettings{shards: 2, batch: 16, queue: 64}, `{"version":1,"shards":2,"batch_size":16,"queue_depth":64}`},
		{replaySettings{delay: time.Millisecond}, `{"version":1,"max_delay_ns":1000000}`},
		{replaySettings{delay: -1}, `{"version":1,"max_delay_ns":-1}`},
		{replaySettings{adaptive: true}, `{"version":1,"adaptive_flush":true}`},
		{replaySettings{adaptive: true, delay: time.Millisecond}, `{"version":1,"max_delay_ns":1000000,"adaptive_flush":true}`},
	} {
		got, err := tc.in.endpointOptions().Serving.Canonical()
		if err != nil || string(got) != tc.want {
			t.Fatalf("%+v: config %s (%v), want %s", tc.in, got, err, tc.want)
		}
	}
}

// TestReplaySettingsValidateAdaptive: -adaptive with a negative (greedy)
// -batch-delay is contradictory.
func TestReplaySettingsValidateAdaptive(t *testing.T) {
	if _, err := parseFlags([]string{"-spec", "s.json", "-adaptive", "-batch-delay", "-1ms"}); err == nil {
		t.Fatal("adaptive + negative delay must be rejected")
	}
	if _, err := parseFlags([]string{"-spec", "s.json", "-adaptive", "-batch-delay", "1ms"}); err != nil {
		t.Fatal(err)
	}
}

// TestDescribeConfigFlush pins how the CLI names a config's flush
// policy: the one the runtime runs, so a greedy config prints no delay.
func TestDescribeConfigFlush(t *testing.T) {
	ns := func(d time.Duration) *int64 { v := int64(d); return &v }
	for _, tc := range []struct {
		cfg  serve.ServingConfig
		want string
	}{
		{serve.ServingConfig{Shards: 2}, "batch=64 shards=2 flush=greedy queue=1024"},
		{serve.ServingConfig{Shards: 2, MaxDelayNS: ns(0)}, "batch=64 shards=2 flush=greedy queue=1024"},
		{serve.ServingConfig{Shards: 2, BatchSize: 16, MaxDelayNS: ns(250 * time.Microsecond)}, "batch=16 shards=2 flush=fixed(250µs) queue=1024"},
		{serve.ServingConfig{Shards: 2, AdaptiveFlush: true}, "batch=64 shards=2 flush=adaptive(500µs) queue=1024"},
		{serve.ServingConfig{Shards: 2, AdaptiveFlush: true, MaxDelayNS: ns(0)}, "batch=64 shards=2 flush=greedy queue=1024"},
	} {
		if got := describeConfig(tc.cfg); got != tc.want {
			t.Errorf("describeConfig(%+v) = %q, want %q", tc.cfg, got, tc.want)
		}
	}
}

// TestReplayHeaderFlush: the -deploy replay header names the flush
// policy the endpoint runs — greedy by default, a hold only for a
// positive -batch-delay.
func TestReplayHeaderFlush(t *testing.T) {
	for _, tc := range []struct {
		delay time.Duration
		want  string
	}{
		{0, "shards=2 batch=16 flush=greedy queue=1024 clients=2"},
		{time.Millisecond, "shards=2 batch=16 flush=fixed(1ms) queue=1024 clients=2"},
	} {
		var out strings.Builder
		cfg := adConfig(t, replaySettings{deploy: true, samples: 64, clients: 2, shards: 2, batch: 16, delay: tc.delay})
		cfg.out = &out
		if _, err := run(context.Background(), cfg); err != nil {
			t.Fatal(err)
		}
		var header string
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.HasPrefix(line, `endpoint "replay" rev 1:`) {
				header = line
			}
		}
		if !strings.HasSuffix(header, tc.want) || strings.Contains(header, "delay=") {
			t.Fatalf("-batch-delay %v: header %q, want it to end %q", tc.delay, header, tc.want)
		}
	}
}
