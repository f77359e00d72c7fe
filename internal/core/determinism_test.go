package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/backend"
	"repro/internal/dtree"
	"repro/internal/ir"
	"repro/internal/parallel"
	"repro/internal/synth/nslkdd"
)

// bestFingerprint serializes everything the search promises to be
// deterministic about: the winning algorithm, its metric, and the full
// model parameters (weights, biases, quantization metadata) via the IR's
// canonical JSON encoding.
func bestFingerprint(t *testing.T, res *SearchResult) []byte {
	t.Helper()
	if res.Best == nil || res.Best.Model == nil {
		t.Fatal("search found no model")
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "alg=%s metric=%x\n", res.Best.Algorithm, res.Best.Metric)
	if err := res.Best.Model.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Belt and braces: the per-candidate histories too (objective values
	// and evaluation order for every family).
	for _, c := range res.Candidates {
		fmt.Fprintf(&buf, "family=%s skipped=%q\n", c.Algorithm, c.Skipped)
		for _, ev := range c.BO.History {
			b, err := json.Marshal(ev.X)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&buf, "x=%s y=%x feas=%v\n", b, ev.Objective, ev.Feasible)
		}
	}
	return buf.Bytes()
}

// requireFreshlyTrainedTree retrains the tree family's winner from its
// design point with dtree.Train — its own presort, nothing shared — and
// requires the search's model, byte for byte.
func requireFreshlyTrainedTree(t *testing.T, app App, sc SearchConfig, res *SearchResult) {
	t.Helper()
	for _, c := range res.Candidates {
		if c.Algorithm != ir.DTree {
			continue
		}
		if c.Model == nil || c.BO.Best == nil {
			t.Fatal("the tree family found no model")
		}
		data := prepare(app)
		x := c.BO.Best.X
		tree, err := dtree.Train(dtree.Config{MaxDepth: int(x[0]), MinLeaf: int(x[1]), Classes: app.Train.Classes()}, data.train)
		if err != nil {
			t.Fatal(err)
		}
		fresh := ir.FromDTree(app.Name, tree, data.train.Features(), sc.Format)
		fresh.FeatureNames = app.Train.FeatureNames
		data.foldNormalizer(fresh)
		var got, want bytes.Buffer
		if err := c.Model.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := fresh.WriteJSON(&want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("the tree grown from the shared presort at %v is not the tree dtree.Train fits there", x)
		}
		return
	}
	t.Fatal("the tree family was not searched")
}

// TestSearchDeterministicAcrossGOMAXPROCS pins the repo's concurrency
// contract: a fixed-seed core.Search must return byte-identical results
// across repeated runs, with the worker pool disabled (GOMAXPROCS=1) and
// populated (2 and 4 workers) — the parallel kernels, forest fits,
// acquisition scoring, family fan-out and the early return of finished
// families' tokens must not leak scheduling into the outcome. The tree
// family's twenty candidates grow from one presort of the training set;
// its winner must be the tree a fresh dtree.Train fits at that point.
func TestSearchDeterministicAcrossGOMAXPROCS(t *testing.T) {
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 600
	train, test, err := nslkdd.TrainTest(cfg)
	if err != nil {
		t.Fatal(err)
	}
	app := App{Name: "ad", Train: train, Test: test, Normalize: true}

	sc := DefaultSearchConfig()
	sc.BO.InitSamples = 3
	sc.BO.Iterations = 4
	sc.TrainEpochs = 3
	sc.MaxHiddenLayers = 2
	sc.MaxNeurons = 12
	sc.Seed = 42

	run := func() []byte {
		res, err := Search(context.Background(), app, backend.NewTaurusTarget(), sc)
		if err != nil {
			t.Fatal(err)
		}
		requireFreshlyTrainedTree(t, app, sc, res)
		return bestFingerprint(t, res)
	}

	oldProcs := runtime.GOMAXPROCS(0)
	oldWorkers := parallel.Workers()
	defer func() {
		runtime.GOMAXPROCS(oldProcs)
		parallel.SetWorkers(oldWorkers)
	}()

	var reference []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		parallel.SetWorkers(procs)
		for rep := 0; rep < 3; rep++ {
			got := run()
			if reference == nil {
				reference = got
				continue
			}
			if !bytes.Equal(got, reference) {
				t.Fatalf("GOMAXPROCS=%d rep %d: search result diverged from reference", procs, rep)
			}
		}
	}
}
