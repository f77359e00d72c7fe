package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/ir"
	"repro/internal/parallel"
)

// serialFamily is searchFamily as it was when a family evaluated one
// point at a time: the training seed counted up per evaluation and the
// best model kept by a strict > in evaluation order.
func serialFamily(data *prepared, target Target, cfg SearchConfig, kind ir.Kind) (CandidateResult, error) {
	space, build := familySpace(data.app, cfg, kind)
	res := CandidateResult{Algorithm: kind}
	evalCount := 0
	var bestModel *ir.Model
	var bestVerdict Verdict
	bestMetric := -1.0
	boCfg := cfg.BO
	boCfg.Seed = cfg.Seed + int64(kind)*101
	boRes, err := bo.Maximize(context.Background(), space, boCfg, func(x []float64) (float64, bool, map[string]float64, error) {
		evalCount++
		seed := cfg.Seed + int64(kind)*1000 + int64(evalCount)
		model, verdict, metric, err := data.evaluate(build, x, seed, target, cfg.Metric)
		if err != nil {
			return 0, false, nil, err
		}
		if model == nil {
			return 0, false, map[string]float64{"train_error": 1}, nil
		}
		if verdict.Feasible && metric > bestMetric {
			bestMetric, bestModel, bestVerdict = metric, model, verdict
		}
		return metric, verdict.Feasible, verdict.Metrics, nil
	})
	if err != nil {
		return res, err
	}
	res.BO = boRes
	if bestModel != nil {
		data.foldNormalizer(bestModel)
		res.Model, res.Metric, res.Verdict = bestModel, bestMetric, bestVerdict
	}
	return res, nil
}

// familyFingerprint is everything a family's search returns: the model
// document, its metric and verdict, and the BO history.
func familyFingerprint(t *testing.T, c CandidateResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "metric=%x verdict=%+v\n", c.Metric, c.Verdict)
	if c.Model != nil {
		if err := c.Model.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
	}
	for _, ev := range c.BO.History {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestSearchConcurrentMatchesSerial: with a budget that reaches two
// paired iterations, every family's part of a Search — its warm-up
// evaluated ahead of the BO run beside the other families', the rest
// grouped — returns what the one-at-a-time search did: the same training
// seeds, so the same history, and of equally scoring models the first one
// (the tree family has many ties), at pool sizes 1, 2 and 4.
func TestSearchConcurrentMatchesSerial(t *testing.T) {
	app := smallApp(t, 9)
	cfg := fastSearchConfig()
	cfg.BO.InitSamples, cfg.BO.Iterations = 5, 7
	cfg.TrainEpochs = 3
	target := backend.NewTaurusTarget()
	var want [][]byte
	for _, kind := range []ir.Kind{ir.DNN, ir.SVM, ir.KMeans, ir.DTree} {
		res, err := serialFamily(prepare(app), target, cfg, kind)
		if err != nil {
			t.Fatal(err)
		}
		if res.Model == nil {
			t.Fatalf("%s: the serial search found no model", kind)
		}
		want = append(want, familyFingerprint(t, res))
	}
	old := parallel.Workers()
	defer parallel.SetWorkers(old)
	for _, workers := range []int{1, 2, 4} {
		parallel.SetWorkers(workers)
		res, err := Search(context.Background(), app, target, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, c := range res.Candidates {
			if got := familyFingerprint(t, c); !bytes.Equal(got, want[k]) {
				t.Fatalf("%s, %d workers: the search returned\n%s\nthe serial one\n%s", c.Algorithm, workers, got, want[k])
			}
		}
	}
}
