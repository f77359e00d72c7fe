package homunculus

// Validate-stage tests: WithValidation flows end to end through Submit —
// the verdict rides the job result, participates in the cache key (a
// validated submission is never served an unvalidated cached pipeline),
// and survives a daemon restart with the rest of the job.

import (
	"context"
	"testing"

	"repro/alchemy"
	"repro/internal/validate"
)

// submitValidated compiles one dtree pipeline on svc, with or without
// the validate stage, and returns the finished pipeline.
func submitValidated(t *testing.T, svc *Service, seed int64, validated bool) (*Job, *Pipeline) {
	t.Helper()
	p := alchemy.Taurus()
	p.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name: "vs", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(seed)}))
	opts := []Option{WithSearchConfig(fastConfig())}
	if validated {
		opts = append(opts, WithValidation())
	}
	job, err := svc.Submit(context.Background(), p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	pipe, err := job.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return job, pipe
}

// TestValidateStageAttachesVerdict: a validated submission's result
// carries a clean differential verdict covering every evaluator the
// model family has (dtree on taurus: ir, p4, spatial).
func TestValidateStageAttachesVerdict(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 1})
	t.Cleanup(func() { _ = svc.Close() })

	_, pipe := submitValidated(t, svc, 11, true)
	v := pipe.Apps[0].Validation
	if !v.OK() {
		t.Fatalf("verdict: %s", v.String())
	}
	if want := len(validate.ProductTraffic(pipe.Apps[0].Model)); v.Inputs != want {
		t.Fatalf("traffic %d, want %d (fixed traffic + boundary probes)", v.Inputs, want)
	}
	want := map[string]bool{"ir": true, "p4": true, "spatial": true}
	for _, e := range v.Evaluators {
		delete(want, e)
	}
	if len(want) != 0 {
		t.Fatalf("evaluators %v missing %v", v.Evaluators, want)
	}
}

// TestValidateStageCacheKeySeparation: WithValidation participates in
// the spec hash, so the same spec submitted with and without validation
// resolves to different cache entries — and two validated submissions
// share one.
func TestValidateStageCacheKeySeparation(t *testing.T) {
	svc := New(ServiceOptions{MaxInFlight: 2})
	t.Cleanup(func() { _ = svc.Close() })

	_, plain := submitValidated(t, svc, 11, false)
	if plain.Apps[0].Validation != nil {
		t.Fatalf("unvalidated submission got a verdict: %s", plain.Apps[0].Validation.String())
	}
	_, checked := submitValidated(t, svc, 11, true)
	if !checked.Apps[0].Validation.OK() {
		t.Fatalf("validated submission verdict: %s", checked.Apps[0].Validation.String())
	}
	// A second validated submission is a cache hit that keeps its verdict.
	_, again := submitValidated(t, svc, 11, true)
	if !again.Apps[0].Validation.OK() {
		t.Fatalf("cached validated submission lost its verdict: %s", again.Apps[0].Validation.String())
	}
}

// TestValidateVerdictSurvivesRestart: the verdict is persisted with the
// job's pipeline document, so after a restart the identical validated
// submission warm-hits the artifact store and still carries it.
func TestValidateVerdictSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc := mustOpen(t, dir, nil)

	job, pipe := submitValidated(t, svc, 11, true)
	wantInputs := pipe.Apps[0].Validation.Inputs
	id := job.ID()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	svc2 := mustOpen(t, dir, nil)
	t.Cleanup(func() { _ = svc2.Close() })
	if rep := svc2.Recovery(); len(rep.JobsRecovered) != 1 || rep.JobsRecovered[0] != id {
		t.Fatalf("recovery report: %+v", rep)
	}
	again, rpipe := submitValidated(t, svc2, 11, true)
	if !again.Status().CacheHit {
		t.Fatal("validated resubmission after restart must warm-hit the store")
	}
	v := rpipe.Apps[0].Validation
	if !v.OK() || v.Inputs != wantInputs {
		t.Fatalf("restored verdict: %s (inputs %d, want %d)", v.String(), v.Inputs, wantInputs)
	}
}
