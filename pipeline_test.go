package homunculus

// Tests for the staged compilation pipeline: cancellation, progress
// events, the compose stage's reading of the schedule, Generate-level
// determinism across pool sizes, and the cross-platform sweep.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/ir"
	"repro/internal/parallel"
)

// --- cancellation ---

// TestGenerateCancellationMidSearch: cancelling the context while the
// search stage runs must abort promptly with an error wrapping
// context.Canceled.
func TestGenerateCancellationMidSearch(t *testing.T) {
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "slow", Algorithms: []string{"dnn"}, DataLoader: sampleLoader(11)})
	p := alchemy.Taurus()
	p.Schedule(model)

	// A budget big enough to run for a while uncancelled.
	cfg := fastConfig()
	cfg.BO.InitSamples = 10
	cfg.BO.Iterations = 40
	cfg.TrainEpochs = 20
	cfg.MaxHiddenLayers = 4
	cfg.MaxNeurons = 24

	ctx, cancel := context.WithCancel(context.Background())
	// Cancel as soon as the search stage reports its first candidate.
	var once sync.Once
	progress := func(ev Event) {
		if ev.Stage == StageSearch {
			once.Do(cancel)
		}
	}
	start := time.Now()
	_, err := Generate(ctx, p, WithSearchConfig(cfg), WithProgress(progress))
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled Generate must fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error must wrap context.Canceled, got: %v", err)
	}
	// "Promptly": one BO evaluation at this scale is milliseconds; give
	// slow CI boxes plenty of slack while still catching a
	// run-to-completion regression (the full budget takes far longer).
	if elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestGenerateDeadlineExceeded: an already-expired deadline must surface
// as a wrapped DeadlineExceeded before any real work happens.
func TestGenerateDeadlineExceeded(t *testing.T) {
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "d", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(12)})
	p := alchemy.Taurus()
	p.Schedule(model)
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond)
	_, err := Generate(ctx, p, WithSearchConfig(fastConfig()))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error must wrap DeadlineExceeded, got: %v", err)
	}
}

// --- progress events ---

// TestGenerateProgressStages: a two-app composition must report every
// stage in order, with app- and candidate-level search events.
func TestGenerateProgressStages(t *testing.T) {
	m1 := alchemy.NewModel(alchemy.ModelSpec{
		Name: "m1", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(13)})
	m2 := alchemy.NewModel(alchemy.ModelSpec{
		Name: "m2", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(14)})
	p := alchemy.Taurus()
	p.Schedule(alchemy.Seq(m1, m2))

	var mu sync.Mutex
	var events []Event
	pipe, err := Generate(context.Background(), p, WithSearchConfig(fastConfig()),
		WithProgress(func(ev Event) {
			mu.Lock()
			events = append(events, ev)
			mu.Unlock()
		}))
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Composition == nil {
		t.Fatal("two-app Taurus schedule must compose")
	}

	seen := map[string]int{}
	firstIdx := map[Stage]int{}
	lastIdx := map[Stage]int{}
	for i, ev := range events {
		if ev.Candidate != "" {
			if ev.Done {
				seen["candidate"]++
			}
		} else if ev.Done {
			seen[string(ev.Stage)+"/done"]++
		} else {
			seen[string(ev.Stage)+"/start"]++
		}
		if _, ok := firstIdx[ev.Stage]; !ok {
			firstIdx[ev.Stage] = i
		}
		lastIdx[ev.Stage] = i
	}
	if seen["load/done"] != 2 || seen["search/done"] != 2 || seen["codegen/done"] != 2 {
		t.Fatalf("per-app events wrong: %v", seen)
	}
	if seen["compose/done"] != 1 {
		t.Fatalf("compose events wrong: %v", seen)
	}
	if seen["candidate"] != 2 { // one dtree candidate per app
		t.Fatalf("candidate events wrong: %v", seen)
	}
	// Stage ordering: loads all precede searches; composition precedes
	// codegen.
	if lastIdx[StageLoad] > firstIdx[StageSearch] {
		t.Fatal("load events must precede search events")
	}
	if lastIdx[StageCompose] > firstIdx[StageCodegen] {
		t.Fatal("compose must precede codegen")
	}
}

// --- compose stage ---

func schedModel(name string) *alchemy.Model {
	return alchemy.NewModel(alchemy.ModelSpec{
		Name: name, DataLoader: alchemy.DataLoaderFunc(func() (*alchemy.Data, error) { return nil, nil })})
}

// composeOn runs the compose stage on target with only the given
// leaves compiled, and returns its verdict and the stage events.
func composeOn(t *testing.T, target backend.Target, s *alchemy.Schedule, compiled ...*alchemy.Model) (*backend.Verdict, []Event) {
	t.Helper()
	built := map[*alchemy.Model]*ir.Model{}
	for _, m := range compiled {
		tree := gateTreeModel()
		tree.Name = m.Spec.Name
		built[m] = tree
	}
	var events []Event
	v, err := composeSchedule(target, s, func(m *alchemy.Model) *ir.Model { return built[m] },
		func(ev Event) { events = append(events, ev) })
	if err != nil {
		t.Fatal(err)
	}
	return v, events
}

func TestBuildCompositionAllInfeasible(t *testing.T) {
	a, b := schedModel("a"), schedModel("b")
	v, events := composeOn(t, backend.NewTaurusTarget(), alchemy.Seq(a, b))
	if v != nil || len(events) != 0 {
		t.Fatalf("schedule with no compiled models must produce no composition, got %+v (%d events)", v, len(events))
	}
}

func TestBuildCompositionSingleChildCollapse(t *testing.T) {
	a, b, c := schedModel("a"), schedModel("b"), schedModel("c")
	// Only one of the two scheduled models compiled: a lone model has no
	// whole-pipeline estimate beyond its own verdict.
	if v, _ := composeOn(t, backend.NewTaurusTarget(), alchemy.Seq(a, b), a); v != nil {
		t.Fatalf("single survivor must produce no composition, got %+v", v)
	}
	// a > (b | c) with c unsatisfiable: the | collapses to b, so the
	// chain runs a > b.
	v, _ := composeOn(t, backend.NewTaurusTarget(), alchemy.Seq(a, alchemy.Par(b, c)), a, b)
	if v == nil || v.Metrics["models"] != 2 || v.Metrics["chain_depth"] != 2 {
		t.Fatalf("collapsed | must leave a chain of two, got %+v", v)
	}
}

func TestBuildCompositionOpMapping(t *testing.T) {
	a, b, c := schedModel("a"), schedModel("b"), schedModel("c")
	target := backend.NewTaurusTarget()
	seq, events := composeOn(t, target, alchemy.Seq(a, b), a, b)
	if seq == nil || seq.Metrics["models"] != 2 || seq.Metrics["chain_depth"] != 2 {
		t.Fatalf("Seq schedule must chain both models, got %+v", seq)
	}
	if len(events) != 2 || events[0].Stage != StageCompose || events[0].Done || !events[1].Done {
		t.Fatalf("compose stage must emit start and done, got %+v", events)
	}
	par, _ := composeOn(t, target, alchemy.Par(a, b), a, b)
	if par == nil || par.Metrics["models"] != 2 || par.Metrics["chain_depth"] != 1 {
		t.Fatalf("Par schedule must run both models side by side, got %+v", par)
	}
	// Nested: a > (b | c) with all satisfiable keeps its shape.
	nested, _ := composeOn(t, target, alchemy.Seq(a, alchemy.Par(b, c)), a, b, c)
	if nested == nil || nested.Metrics["models"] != 3 || nested.Metrics["chain_depth"] != 2 {
		t.Fatalf("a > (b | c) must give 3 models at depth 2, got %+v", nested)
	}
	// A target that cannot compose gets no whole-pipeline verdict.
	if v, _ := composeOn(t, struct{ backend.Target }{target}, alchemy.Seq(a, b), a, b); v != nil {
		t.Fatalf("non-composing target must produce no composition, got %+v", v)
	}
}

// --- Generate-level determinism across pool sizes ---

// pipelineFingerprint serializes everything Generate promises to be
// deterministic about.
func pipelineFingerprint(t *testing.T, pipe *Pipeline) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "platform=%s apps=%d\n", pipe.Platform, len(pipe.Apps))
	for _, app := range pipe.Apps {
		fmt.Fprintf(&buf, "app=%s alg=%s metric=%x code=%d\n", app.Name, app.Algorithm, app.Metric, len(app.Code))
		buf.WriteString(app.Code)
		if app.Model != nil {
			if err := app.Model.WriteJSON(&buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pipe.Composition != nil {
		fmt.Fprintf(&buf, "comp=%v %x\n", pipe.Composition.Feasible, pipe.Composition.Metrics["cus"])
	}
	return buf.Bytes()
}

// TestGenerateDeterministicAcrossPoolSizes extends the core-level
// regression to the whole staged pipeline: a fixed-seed multi-app
// Generate — per-app fan-out, family fan-out, kernels — must be
// byte-identical with the pool disabled and fully populated.
func TestGenerateDeterministicAcrossPoolSizes(t *testing.T) {
	build := func() *alchemy.Platform {
		m1 := alchemy.NewModel(alchemy.ModelSpec{
			Name: "ad1", Algorithms: []string{"dnn"}, DataLoader: sampleLoader(15)})
		m2 := alchemy.NewModel(alchemy.ModelSpec{
			Name: "ad2", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(16)})
		p := alchemy.Taurus()
		p.Schedule(alchemy.Par(m1, m2))
		return p
	}
	cfg := fastConfig()

	oldWorkers := parallel.Workers()
	defer parallel.SetWorkers(oldWorkers)

	var reference []byte
	for _, workers := range []int{1, runtime.NumCPU(), 3} {
		parallel.SetWorkers(workers)
		for rep := 0; rep < 2; rep++ {
			pipe, err := Generate(context.Background(), build(), WithSearchConfig(cfg), WithSeed(7))
			if err != nil {
				t.Fatal(err)
			}
			got := pipelineFingerprint(t, pipe)
			if reference == nil {
				reference = got
				continue
			}
			if !bytes.Equal(got, reference) {
				t.Fatalf("workers=%d rep=%d: pipeline diverged from reference", workers, rep)
			}
		}
	}
}

// --- cross-platform sweep ---

func TestGenerateAcrossAllBackends(t *testing.T) {
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "sweep", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(17)})
	p := alchemy.Taurus()
	p.Schedule(model)

	reports, err := GenerateAcross(context.Background(), p, nil, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 3 {
		t.Fatalf("sweep must cover every registered backend, got %d", len(reports))
	}
	byKind := map[string]TargetReport{}
	for _, r := range reports {
		byKind[r.Platform] = r
	}
	for kind, codeSig := range map[string]string{"taurus": "@spatial", "tofino": "v1model", "fpga": "@spatial"} {
		r, ok := byKind[kind]
		if !ok {
			t.Fatalf("missing backend %s in sweep", kind)
		}
		if r.Err != nil {
			t.Fatalf("%s: %v", kind, r.Err)
		}
		app := r.Pipeline.Apps[0]
		if app.Model == nil {
			t.Fatalf("%s: dtree must deploy", kind)
		}
		if !strings.Contains(app.Code, codeSig) {
			t.Fatalf("%s: code missing %q", kind, codeSig)
		}
	}
}

func TestGenerateAcrossSelectedKinds(t *testing.T) {
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "dnn_sweep", Algorithms: []string{"dnn"}, DataLoader: sampleLoader(18)})
	p := alchemy.FPGA()
	p.Schedule(model)
	reports, err := GenerateAcross(context.Background(), p, []string{"tofino", "taurus"}, WithSearchConfig(fastConfig()))
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0].Platform != "tofino" || reports[1].Platform != "taurus" {
		t.Fatalf("kind selection lost: %+v", reports)
	}
	// DNN on tofino: pruned — report present, no model, no error.
	if reports[0].Err != nil || reports[0].Pipeline.Apps[0].Model != nil {
		t.Fatalf("tofino DNN must be an empty (pruned) result: %+v", reports[0])
	}
	if reports[1].Pipeline.Apps[0].Model == nil {
		t.Fatal("taurus DNN must deploy")
	}
}
