package homunculus

// Benchmarks of the compiler and its substrates: ablations of the
// design choices (BO vs random search, feasibility pruning, fixed-point
// width), micro-benchmarks of the hot kernels, and the serving, service
// and artifact paths with their allocation budgets and the autopilot
// gate, asserted inside the benchmarks (`make bench-smoke`). The paper's tables and figures are
// benchmarked in internal/experiments; wall-clock claims are judged by
// the repo benchmark in bench/.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/fixed"
	"repro/internal/ir"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/packet"
	"repro/internal/rf"
	"repro/internal/store"
	"repro/internal/synth/botnet"
	"repro/internal/synth/nslkdd"
	"repro/internal/taurus"
	"repro/internal/tune"
)

// ---- Ablations ----

// BenchmarkAblationRandomVsBO compares the searched best F1 under the same
// evaluation budget with the RF-surrogate BO against pure random sampling
// (averaged across seeds).
func BenchmarkAblationRandomVsBO(b *testing.B) {
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 1500
	train, test, err := nslkdd.TrainTest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	app := core.App{Name: "ad", Train: train, Test: test, Normalize: true}
	target := backend.NewTaurusTarget()

	var boBest, randBest float64
	seeds := []int64{1, 2, 3}
	for i := 0; i < b.N; i++ {
		boBest, randBest = 0, 0
		for _, seed := range seeds {
			sc := core.DefaultSearchConfig()
			sc.Algorithms = []ir.Kind{ir.DNN}
			sc.BO.InitSamples = 3
			sc.BO.Iterations = 6
			sc.TrainEpochs = 6
			sc.MaxHiddenLayers = 3
			sc.MaxNeurons = 16
			sc.Seed = seed
			res, err := core.Search(context.Background(), app, target, sc)
			if err != nil {
				b.Fatal(err)
			}
			if res.Best != nil {
				boBest += res.Best.Metric
			}
			// Random search: same budget, init-only (no BO iterations).
			rc := sc
			rc.BO.InitSamples = 9
			rc.BO.Iterations = 0
			res2, err := core.Search(context.Background(), app, target, rc)
			if err != nil {
				b.Fatal(err)
			}
			if res2.Best != nil {
				randBest += res2.Best.Metric
			}
		}
	}
	b.ReportMetric(100*boBest/float64(len(seeds)), "bo_F1")
	b.ReportMetric(100*randBest/float64(len(seeds)), "random_F1")
}

// BenchmarkAblationFeasibility measures how much feasibility-aware pruning
// matters: the same search against a tight 6×6 grid with and without the
// resource constraints surfaced to the optimizer (without them, infeasible
// high-F1 models win the search and are rejected at deployment).
func BenchmarkAblationFeasibility(b *testing.B) {
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 1500
	train, test, err := nslkdd.TrainTest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	app := core.App{Name: "ad", Train: train, Test: test, Normalize: true}
	tight := backend.NewTaurusTarget()
	tight.Grid.Rows, tight.Grid.Cols = 6, 6

	var withFeas, deployable float64
	for i := 0; i < b.N; i++ {
		sc := core.DefaultSearchConfig()
		sc.Algorithms = []ir.Kind{ir.DNN}
		sc.BO.InitSamples = 4
		sc.BO.Iterations = 8
		sc.TrainEpochs = 6
		res, err := core.Search(context.Background(), app, tight, sc)
		if err != nil {
			b.Fatal(err)
		}
		withFeas, deployable = 0, 0
		if res.Best != nil {
			withFeas = res.Best.Metric
			deployable = 1
		}
	}
	b.ReportMetric(100*withFeas, "feasible_F1")
	b.ReportMetric(deployable, "deployable")
}

// BenchmarkAblationQuant quantifies the accuracy cost of fixed-point
// inference across formats (Q8.8 vs Q4.12 vs float reference).
func BenchmarkAblationQuant(b *testing.B) {
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 2000
	train, test, err := nslkdd.TrainTest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	norm := dataset.FitNormalizer(train)
	trn, tst := train.Clone(), test.Clone()
	norm.Apply(trn)
	norm.Apply(tst)
	nc := nn.Config{
		Inputs: 7, Hidden: []int{16, 12}, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.Adam,
		LearnRate: 0.01, BatchSize: 32, Epochs: 12, Seed: 1,
	}
	net, err := nn.New(nc)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := net.Train(trn); err != nil {
		b.Fatal(err)
	}

	score := func(m *ir.Model, quantized bool) float64 {
		pred := make([]int, tst.Len())
		for i := 0; i < tst.Len(); i++ {
			var y int
			var err error
			if quantized {
				y, err = m.InferQ(tst.X.Row(i))
			} else {
				y, err = m.Infer(tst.X.Row(i))
			}
			if err != nil {
				b.Fatal(err)
			}
			pred[i] = y
		}
		return 100 * metrics.FromLabels(tst.Y, pred, 2).F1(1)
	}

	var floatF1, q88F1, q412F1 float64
	for i := 0; i < b.N; i++ {
		m88 := ir.FromNN("ad", net, fixed.Q8_8)
		m412 := ir.FromNN("ad", net, fixed.Q4_12)
		floatF1 = score(m88, false)
		q88F1 = score(m88, true)
		q412F1 = score(m412, true)
	}
	b.ReportMetric(floatF1, "float_F1")
	b.ReportMetric(q88F1, "q8.8_F1")
	b.ReportMetric(q412F1, "q4.12_F1")
}

// ---- Substrate micro-benchmarks ----

// BenchmarkNNTrainEpoch tracks the training hot loop. Seed numbers on the
// reference machine (pre-arena): 930110 ns/op, 383096 B/op, 816 allocs/op
// — every batch allocated fresh gradient/delta/staging matrices. With the
// per-Train arena the steady state is ~86 allocs/op (~50 KB), all of it
// one-time Train setup; the per-batch loop is allocation-free.
func BenchmarkNNTrainEpoch(b *testing.B) {
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 1000
	train, _, err := nslkdd.TrainTest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	if !testing.Short() {
		// Allocation budget regression check: a full Train call must stay
		// far under the seed's single-epoch 816 allocs/op, and adding
		// epochs (i.e. more batches) must not add allocations — the
		// arena makes per-batch cost O(1) with constant 0.
		nc := nn.Config{
			Inputs: 7, Hidden: []int{12, 6}, Outputs: 2,
			Activation: nn.ReLU, Optimizer: nn.Adam,
			LearnRate: 0.01, BatchSize: 32, Epochs: 1, Seed: 1,
		}
		net1, _ := nn.New(nc)
		oneEpoch := testing.AllocsPerRun(3, func() {
			if _, err := net1.Train(train); err != nil {
				b.Fatal(err)
			}
		})
		if oneEpoch > 150 {
			b.Fatalf("Train(1 epoch) allocated %.0f times, budget 150 (seed was 816)", oneEpoch)
		}
		nc.Epochs = 3
		net3, _ := nn.New(nc)
		threeEpochs := testing.AllocsPerRun(3, func() {
			if _, err := net3.Train(train); err != nil {
				b.Fatal(err)
			}
		})
		if threeEpochs > oneEpoch+8 {
			b.Fatalf("steady-state batches allocate: 1 epoch %.0f vs 3 epochs %.0f allocs", oneEpoch, threeEpochs)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nc := nn.Config{
			Inputs: 7, Hidden: []int{12, 6}, Outputs: 2,
			Activation: nn.ReLU, Optimizer: nn.Adam,
			LearnRate: 0.01, BatchSize: 32, Epochs: 1, Seed: int64(i),
		}
		net, _ := nn.New(nc)
		if _, err := net.Train(train); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuantizedInference(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.New(256, 7)
	for i := range d.X.Data {
		d.X.Data[i] = rng.NormFloat64()
	}
	nc := nn.Config{
		Inputs: 7, Hidden: []int{12, 6, 3}, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.SGD,
		LearnRate: 0.1, BatchSize: 32, Epochs: 1, Seed: 1,
	}
	net, _ := nn.New(nc)
	m := ir.FromNN("ad", net, fixed.Q8_8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.InferQ(d.X.Row(i % 256)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTaurusEstimate(b *testing.B) {
	nc := nn.Config{
		Inputs: 30, Hidden: []int{10, 10, 10, 10}, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.SGD,
		LearnRate: 0.1, BatchSize: 32, Epochs: 1, Seed: 1,
	}
	net, _ := nn.New(nc)
	m := ir.FromNN("bd", net, fixed.Q8_8)
	g, c := taurus.DefaultGrid(), taurus.DefaultConstraints()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := taurus.Estimate(g, c, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRFSurrogate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 50
	xs := make([][]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = xs[i][0]*2 - xs[i][1]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := rf.Train(rf.DefaultConfig(), xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		f.PredictVar([]float64{0.5, 0.5, 0.5})
	}
}

// BenchmarkBOIteration tracks the optimizer inner loop. Seed numbers on
// the reference machine: 2251879 ns/op, 796021 B/op, 2524 allocs/op —
// dominated by per-tree math/rand seeding, per-node forest allocations,
// and the rebuilt candidate pool. With flat-arena trees, splitmix per-tree
// RNGs, incremental history, and the reused candidate/EI buffers it ran
// ~10× faster at ~855 allocs/op; with the forests fitted into the run's
// rf.Scratch (slabs that grow only when the bootstrap sample does) a run
// is ~120, most of them the history's own points.
func BenchmarkBOIteration(b *testing.B) {
	space := bo.Space{Params: []bo.Param{
		{Name: "x", Kind: bo.Real, Min: -5, Max: 5},
		{Name: "y", Kind: bo.Real, Min: -5, Max: 5},
	}}
	b.ReportAllocs()
	if !testing.Short() {
		// Allocation budget regression check (the seed allocated 2524
		// times, per-fit forest buffers 883).
		cfg := bo.DefaultConfig()
		cfg.InitSamples = 5
		cfg.Iterations = 5
		cfg.Candidates = 200
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := bo.Maximize(context.Background(), space, cfg, func(x []float64) (float64, bool, map[string]float64, error) {
				return -(x[0]*x[0] + x[1]*x[1]), true, nil, nil
			}); err != nil {
				b.Fatal(err)
			}
		})
		if allocs > 200 {
			b.Fatalf("Maximize allocated %.0f times, budget 200 (seed was 2524)", allocs)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := bo.DefaultConfig()
		cfg.InitSamples = 5
		cfg.Iterations = 5
		cfg.Candidates = 200
		cfg.Seed = int64(i)
		_, err := bo.Maximize(context.Background(), space, cfg, func(x []float64) (float64, bool, map[string]float64, error) {
			return -(x[0]*x[0] + x[1]*x[1]), true, nil, nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDTreeTrainPresorted is what one tree candidate of a family
// search costs: a Grow from the training set's shared presort, at the
// ledger's dtree.train_ms shape. The per-node-sorting CART it replaced
// took ~1.9 ms and 877 allocations here; a Grow allocates its column
// copy, three buffers and the nodes. presort_ns is the once-per-search
// part.
func BenchmarkDTreeTrainPresorted(b *testing.B) {
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 600
	train, _, err := nslkdd.TrainTest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dc := dtree.Config{MaxDepth: 6, MinLeaf: 4, Classes: 2}
	start := time.Now()
	sorted := dtree.Presort(train)
	presort := time.Since(start)
	grow := func() {
		if _, err := sorted.Grow(dc); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	if !testing.Short() {
		if allocs := mallocsPerOp(20, func() {
			for i := 0; i < 20; i++ {
				grow()
			}
		}); allocs > 64 {
			b.Fatalf("Grow allocated %.0f times, budget 64 (per-node sorting: 877)", allocs)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grow()
	}
	b.ReportMetric(float64(presort.Nanoseconds()), "presort_ns")
}

// BenchmarkSearchTofinoShape is the search stage of a compile_cold
// tofino job (bench/README.md): 600 nslkdd samples, the default budget,
// every family a match-action target supports — no DNN, so the tree
// family was the critical path (33 of 35-60 ms) until its candidates
// shared one presort. The budget holds the whole search's allocations:
// 60 evaluations, 33 surrogate fits into per-run scratch.
func BenchmarkSearchTofinoShape(b *testing.B) {
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 600
	train, test, err := nslkdd.TrainTest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	app := core.App{Name: "ad", Train: train, Test: test, Normalize: true}
	var res *core.SearchResult
	search := func() {
		res, err = core.Search(context.Background(), app, backend.NewMATTarget(0), core.DefaultSearchConfig())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	if !testing.Short() {
		if allocs := mallocsPerOp(1, search); allocs > 5000 {
			b.Fatalf("a tofino-shape search allocated %.0f times, budget 5000 (was 26015)", allocs)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
	b.ReportMetric(100*res.Best.Metric, "best_F1")
}

func BenchmarkFlowTableStreaming(b *testing.B) {
	flows, err := botnet.Generate(botnet.Config{Flows: 100, BotnetP: 0.4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	stream := botnet.MergePackets(flows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		table := packet.NewFlowTable(packet.PaperBD)
		for _, p := range stream {
			table.Observe(p)
		}
	}
	b.ReportMetric(float64(len(stream)), "packets")
}

// mallocsPerOp runs f, which performs n operations, and returns the heap
// allocations per operation — what -benchmem prints as allocs/op, taken
// at a fixed n so that a budget holds at any -benchtime (bench-smoke runs
// every benchmark once). Unlike testing.AllocsPerRun it leaves GOMAXPROCS
// alone: the budgeted paths below are the parallel ones.
func mallocsPerOp(n int, f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

func BenchmarkParetoSearch(b *testing.B) {
	cfg := nslkdd.DefaultConfig()
	cfg.Samples = 1200
	train, test, err := nslkdd.TrainTest(cfg)
	if err != nil {
		b.Fatal(err)
	}
	app := core.App{Name: "ad", Train: train, Test: test, Normalize: true}
	var res *core.ParetoSearchResult
	search := func() {
		sc := core.DefaultSearchConfig()
		sc.BO.InitSamples = 4
		sc.BO.Iterations = 6
		sc.TrainEpochs = 6
		sc.MaxHiddenLayers = 3
		sc.MaxNeurons = 16
		res, err = core.SearchPareto(context.Background(), app, backend.NewTaurusTarget(), sc, ir.DNN)
		if err != nil {
			b.Fatal(err)
		}
	}
	if !testing.Short() {
		// PR1's parallel-search allocation budget (the seed allocated
		// 122865 times per search).
		if allocs := mallocsPerOp(1, search); allocs > 3500 {
			b.Fatalf("SearchPareto allocated %.0f times, budget 3500", allocs)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		search()
	}
	b.ReportMetric(float64(len(res.Front)), "front_size")
	if len(res.Front) > 0 {
		b.ReportMetric(100*res.Front[len(res.Front)-1].Metric, "best_F1")
		b.ReportMetric(res.Front[0].Resource, "cheapest_CUs")
	}
}

func BenchmarkSimPipeline(b *testing.B) {
	nc := nn.Config{
		Inputs: 7, Hidden: []int{12, 6, 3}, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.SGD,
		LearnRate: 0.1, BatchSize: 32, Epochs: 1, Seed: 1,
	}
	net, _ := nn.New(nc)
	m := ir.FromNN("ad", net, fixed.Q8_8)
	sim, err := taurus.NewSim(taurus.DefaultGrid(), m)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 7)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := sim.Process(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sim.Stages()), "stages")
}

// BenchmarkServeClassify measures the deployment runtime's serving hot
// path: a single-client classify through the micro-batcher (greedy
// flush), one shard, and the prepared quantized predictor. The
// steady-state path must be allocation-free — request structs, feature
// buffers, batch slices, and completion channels are all pooled — which
// is asserted here (and enforced by CI's bench-compare job) on top of
// being reported as the steady_allocs metric.
func BenchmarkServeClassify(b *testing.B) {
	nc := nn.Config{
		Inputs: 7, Hidden: []int{12, 6}, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.SGD,
		LearnRate: 0.1, BatchSize: 32, Epochs: 1, Seed: 1,
	}
	net, err := nn.New(nc)
	if err != nil {
		b.Fatal(err)
	}
	m := ir.FromNN("ad", net, fixed.Q8_8)
	svc := New(ServiceOptions{})
	defer svc.Close()
	dep, err := svc.CreateEndpointPipeline("bench",
		&Pipeline{Platform: "taurus", Apps: []AppResult{{Name: "ad", Algorithm: "dnn", Model: m}}},
		EndpointOptions{Serving: ServingConfig{Shards: 1, BatchSize: 32, MaxDelayNS: new(int64)}},
	)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	rows := make([][]float64, 64)
	for i := range rows {
		rows[i] = make([]float64, 7)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	for i := 0; i < 256; i++ { // warm the pools
		if _, err := dep.Classify(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	steady := 0.0
	if !testing.Short() {
		// The serve-path allocation budget: 0 allocs/op steady state.
		steady = testing.AllocsPerRun(200, func() {
			if _, err := dep.Classify(rows[0]); err != nil {
				b.Fatal(err)
			}
		})
		if steady > 0 {
			b.Fatalf("steady-state Classify allocated %.1f times per op, budget 0", steady)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dep.Classify(rows[i%len(rows)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	// Metrics must be reported after ResetTimer (which clears them).
	b.ReportMetric(steady, "steady_allocs")
	st := dep.Stats().Merged
	b.ReportMetric(st.MeanBatch, "mean_batch")
}

// BenchmarkEndpointClassifyCanary measures the endpoint routing tax on
// the serving hot path with a live 50% canary: the atomic table load,
// the splitmix split, and both revisions' pooled runtimes must keep the
// steady-state classify at 0 allocs/op — hot-swap capability may not
// cost the zero-alloc serving budget.
func BenchmarkEndpointClassifyCanary(b *testing.B) {
	nc := nn.Config{
		Inputs: 7, Hidden: []int{12, 6}, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.SGD,
		LearnRate: 0.1, BatchSize: 32, Epochs: 1, Seed: 1,
	}
	net, err := nn.New(nc)
	if err != nil {
		b.Fatal(err)
	}
	m := ir.FromNN("ad", net, fixed.Q8_8)
	svc := New(ServiceOptions{})
	defer svc.Close()
	pipe := &Pipeline{Platform: "taurus", Apps: []AppResult{{Name: "ad", Algorithm: "dnn", Model: m}}}
	ep, err := svc.CreateEndpointPipeline("bench", pipe, EndpointOptions{Serving: ServingConfig{Shards: 1, BatchSize: 32, MaxDelayNS: new(int64)}})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ep.RolloutPipeline(pipe, RolloutOptions{CanaryPercent: 50}); err != nil {
		b.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7}
	for i := 0; i < 256; i++ { // warm both revisions' pools
		if _, err := ep.Classify(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	steady := 0.0
	if !testing.Short() {
		// The canary routing path shares the serve budget: 0 allocs/op.
		steady = testing.AllocsPerRun(200, func() {
			if _, err := ep.Classify(x); err != nil {
				b.Fatal(err)
			}
		})
		if steady > 0 {
			b.Fatalf("steady-state canary Classify allocated %.1f times per op, budget 0", steady)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ep.Classify(x); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(steady, "steady_allocs")
}

// BenchmarkServeClassifyConcurrent measures batched serving throughput
// under parallel load: GOMAXPROCS clients hammer one deployment, so the
// micro-batcher actually forms multi-request batches and the shards
// split them.
func BenchmarkServeClassifyConcurrent(b *testing.B) {
	nc := nn.Config{
		Inputs: 7, Hidden: []int{12, 6}, Outputs: 2,
		Activation: nn.ReLU, Optimizer: nn.SGD,
		LearnRate: 0.1, BatchSize: 32, Epochs: 1, Seed: 1,
	}
	net, err := nn.New(nc)
	if err != nil {
		b.Fatal(err)
	}
	m := ir.FromNN("ad", net, fixed.Q8_8)
	svc := New(ServiceOptions{})
	defer svc.Close()
	dep, err := svc.CreateEndpointPipeline("bench",
		&Pipeline{Platform: "taurus", Apps: []AppResult{{Name: "ad", Algorithm: "dnn", Model: m}}},
		EndpointOptions{Serving: ServingConfig{BatchSize: 32, MaxDelayNS: new(int64)}},
	)
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7}
	// Worker goroutines must not call b.Fatal (FailNow is only legal on
	// the benchmark goroutine); collect the first error and fail after.
	var (
		errOnce     sync.Once
		classifyErr error
	)
	if !testing.Short() {
		// The ring's pooled requests keep the concurrent path near zero:
		// 2000 classifies from GOMAXPROCS goroutines, spawning included.
		procs := runtime.GOMAXPROCS(0)
		allocs := mallocsPerOp(2000, func() {
			var wg sync.WaitGroup
			for c := 0; c < procs; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 2000/procs; i++ {
						if _, err := dep.Classify(x); err != nil {
							errOnce.Do(func() { classifyErr = err })
							return
						}
					}
				}()
			}
			wg.Wait()
		})
		if classifyErr == nil && allocs > 2 {
			b.Fatalf("concurrent Classify allocated %.2f times per op, budget 2", allocs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := dep.Classify(x); err != nil {
				errOnce.Do(func() { classifyErr = err })
				return
			}
		}
	})
	b.StopTimer()
	if classifyErr != nil {
		b.Fatal(classifyErr)
	}
	st := dep.Stats().Merged
	b.ReportMetric(st.MeanBatch, "mean_batch")
	b.ReportMetric(float64(st.Dropped), "dropped")
}

// servedDNN is a DNN of the shape the repo benchmark serves
// (7→15→8→23→2, ReLU), and a batch of n vectors for it in one flat
// buffer, the way httpapi hands them over.
func servedDNN(n int) (*ir.Model, [][]float64) {
	rng := rand.New(rand.NewSource(1))
	m := &ir.Model{Kind: ir.DNN, Name: "served", Inputs: 7, Outputs: 2, Format: fixed.Q8_8}
	widths := []int{7, 15, 8, 23, 2}
	for li := 1; li < len(widths); li++ {
		in, out := widths[li-1], widths[li]
		l := ir.Layer{In: in, Out: out, W: make([][]float64, out), B: make([]float64, out), Activation: "relu"}
		if li == len(widths)-1 {
			l.Activation = "softmax"
		}
		for o := range l.W {
			l.W[o] = make([]float64, in)
			for i := range l.W[o] {
				l.W[o][i] = rng.NormFloat64()
			}
			l.B[o] = rng.NormFloat64()
		}
		m.Layers = append(m.Layers, l)
	}
	flat := make([]float64, n*m.Inputs)
	for i := range flat {
		flat[i] = rng.NormFloat64()
	}
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = flat[i*m.Inputs : (i+1)*m.Inputs]
	}
	return m, xs
}

// BenchmarkPredictorClassifyBatchDNN measures the batch kernel alone:
// 256 vectors per op through Predictor.ClassifyBatch, 32 tiles of 8
// lanes. internal/ir's BenchmarkPredictorClassifyDNN times single
// Classify calls on the same model and reports the same per_vector_ns,
// so the two are one comparison: the tile's eight lanes against the
// single vector's four-neuron block.
func BenchmarkPredictorClassifyBatchDNN(b *testing.B) {
	m, xs := servedDNN(256)
	p, err := ir.NewPredictor(m)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int, len(xs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.ClassifyBatch(xs, out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "per_vector_ns")
}

// BenchmarkServeClassifyBatch256 measures one 256-vector ClassifyBatch
// through the deployment runtime with default options: spans of the
// caller's rows in the rings, one kernel call per span. The call may
// allocate its result slice and nothing per vector, which is asserted
// here.
func BenchmarkServeClassifyBatch256(b *testing.B) {
	m, xs := servedDNN(256)
	svc := New(ServiceOptions{})
	defer svc.Close()
	dep, err := svc.CreateEndpointPipeline("bench",
		&Pipeline{Platform: "taurus", Apps: []AppResult{{Name: "served", Algorithm: "dnn", Model: m}}},
		EndpointOptions{},
	)
	if err != nil {
		b.Fatal(err)
	}
	classify := func() {
		if _, dropped, err := dep.ClassifyBatch(xs); err != nil || dropped != 0 {
			b.Fatalf("ClassifyBatch: dropped=%d err=%v", dropped, err)
		}
	}
	for i := 0; i < 16; i++ { // warm the pools
		classify()
	}
	b.ReportAllocs()
	if !testing.Short() {
		if allocs := testing.AllocsPerRun(100, classify); allocs > 2 {
			b.Fatalf("ClassifyBatch of 256 allocated %.1f times per op, budget 2", allocs)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classify()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(xs)), "per_vector_ns")
	b.ReportMetric(dep.Stats().Merged.MeanBatch, "mean_batch")
}

// BenchmarkServeClassifyFreshGoroutine measures Classify the way a
// shadow mirror makes it: once, from a goroutine that has just started.
// A fresh goroutine has 2 KB of stack; when Classify's call chain
// (drain or await and harvest, sweep, the predictor, DotQ) outgrows what the runtime
// leaves of it, every such call pays a stack copy — about 2.6 µs an op
// here instead of 1.4 µs, when single vectors went through the batch
// entry point's two extra frames — and the bursts in which mirrors run
// showed as +15% on serve_inproc's p95. No budget is asserted (the gap
// is too small for a shared runner); the number is here to be looked at
// when that tail moves.
func BenchmarkServeClassifyFreshGoroutine(b *testing.B) {
	m, xs := servedDNN(64)
	svc := New(ServiceOptions{})
	defer svc.Close()
	dep, err := svc.CreateEndpointPipeline("bench",
		&Pipeline{Platform: "taurus", Apps: []AppResult{{Name: "served", Algorithm: "dnn", Model: m}}},
		EndpointOptions{Serving: ServingConfig{Shards: 1, MaxDelayNS: new(int64)}},
	)
	if err != nil {
		b.Fatal(err)
	}
	var failed atomic.Bool
	b.ResetTimer()
	for i := 0; i < b.N; i += len(xs) {
		var wg sync.WaitGroup
		wg.Add(len(xs))
		for _, x := range xs {
			go func() {
				defer wg.Done()
				if _, err := dep.Classify(x); err != nil {
					failed.Store(true)
				}
			}()
		}
		wg.Wait()
	}
	if failed.Load() {
		b.Fatal("Classify failed")
	}
}

// BenchmarkArtifactHit is the read half of a compile_warm job: a stored
// artifact of its shape — one DNN app on an FPGA target, verdict,
// validation report and generated code, ~12 KB — fetched from the store
// (frame and digest checked) and decoded to a pipeline in one pass. The
// budget holds the read's allocations: the two decoders it replaced made
// 256 here, growing every weight slice element by element; the one-pass
// decoder allocates the file, the code, the strings, the structs and one
// slice per weight array or matrix.
func BenchmarkArtifactHit(b *testing.B) {
	m := &ir.Model{Kind: ir.DNN, Name: "iottc_app", Inputs: 7, Outputs: 5, Format: fixed.Q8_8,
		FeatureNames: []string{"pkt_len", "eth_type", "ip_proto", "ip_ttl", "ip_len", "src_port", "dst_port"}}
	rng := rand.New(rand.NewSource(1))
	m.Mean, m.Std = make([]float64, 7), make([]float64, 7)
	for i := range m.Mean {
		m.Mean[i], m.Std[i] = rng.Float64(), rng.Float64()
	}
	widths := []int{7, 12, 10, 5}
	for li := 1; li < len(widths); li++ {
		l := ir.Layer{In: widths[li-1], Out: widths[li], W: make([][]float64, widths[li]), B: make([]float64, widths[li]), Activation: "relu"}
		for o := range l.W {
			l.W[o] = make([]float64, l.In)
			for i := range l.W[o] {
				l.W[o][i] = rng.NormFloat64()
			}
			l.B[o] = rng.NormFloat64()
		}
		m.Layers = append(m.Layers, l)
	}
	target := backend.NewFPGATarget()
	verdict, err := target.Estimate(m)
	if err != nil {
		b.Fatal(err)
	}
	code, err := target.Generate(m)
	if err != nil {
		b.Fatal(err)
	}
	pipe := &Pipeline{Platform: "fpga", Apps: []AppResult{{Name: "iottc_app", Algorithm: "dnn", Metric: 0.58, Model: m,
		Verdict: verdict, Code: code, Validation: &ValidationReport{Evaluators: []string{"ir", "verilog"}, Inputs: 256}}}}
	raw, err := MarshalPipeline(pipe)
	if err != nil {
		b.Fatal(err)
	}
	st, _, _, err := store.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	key := strings.Repeat("5a", 32)
	if err := st.Artifacts.Put(key, raw); err != nil {
		b.Fatal(err)
	}
	hit := func() {
		payload, err := st.Artifacts.Get(key)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := UnmarshalPipeline(payload); err != nil {
			b.Fatal(err)
		}
	}
	hit()
	b.ReportAllocs()
	if !testing.Short() {
		if allocs := testing.AllocsPerRun(20, hit); allocs > 64 {
			b.Fatalf("an artifact hit allocated %.0f times, budget 64", allocs)
		}
	}
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
}

// BenchmarkServiceSubmit measures the admission hot path of the job
// service: Submit must be enqueue-only (validate + clone + ticket), with
// no loading, hashing, or searching — the <1ms budget of the job-based
// API. The single dispatch slot is pinned by a never-dispatched blocker,
// so every measured submission is admitted, queued, and then withdrawn.
func BenchmarkServiceSubmit(b *testing.B) {
	svc := New(ServiceOptions{MaxInFlight: 1, QueueDepth: -1, RetainJobs: 256})
	defer svc.Close()
	release := make(chan struct{})
	// Deferred (LIFO, before svc.Close) so a b.Fatal anywhere below
	// unblocks the pinned worker instead of deadlocking Close's drain.
	defer close(release)
	blockLoader := alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		<-release
		return nil, fmt.Errorf("bench blocker")
	})
	blocker := alchemy.Taurus()
	blocker.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name: "pin", Algorithms: []string{"dtree"}, DataLoader: blockLoader}))
	pin, err := svc.Submit(context.Background(), blocker, WithSearchConfig(fastConfig()))
	if err != nil {
		b.Fatal(err)
	}

	p := alchemy.Taurus()
	p.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name: "bench", Algorithms: []string{"dtree"}, DataLoader: sampleLoader(50)}))
	cfg := fastConfig()
	submit := func() {
		job, err := svc.Submit(context.Background(), p, WithSearchConfig(cfg))
		if err != nil {
			b.Fatal(err)
		}
		job.Cancel()
	}
	if !testing.Short() {
		// PR3's admission-path allocation budget.
		allocs := mallocsPerOp(64, func() {
			for i := 0; i < 64; i++ {
				submit()
			}
		})
		if allocs > 40 {
			b.Fatalf("Submit+Cancel allocated %.1f times per op, budget 40", allocs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submit()
	}
	b.StopTimer()
	if mean := b.Elapsed() / time.Duration(b.N); mean > time.Millisecond {
		b.Fatalf("Submit mean latency %v exceeds the 1ms budget", mean)
	}
	pin.Cancel()
}

// BenchmarkServiceSubmitDurable proves the journal does not break the
// admission budget: with a StateDir set, Submit additionally writes one
// unsynced journal record (the fsync is reserved for terminal
// transitions), and its mean latency must stay under the same 1ms
// budget as the in-memory path. Only the Submit calls are timed; the
// per-iteration Cancel (which fsyncs the terminal record) runs off the
// clock.
func BenchmarkServiceSubmitDurable(b *testing.B) {
	if !alchemy.LoaderRegistered("bench_durable_ds") {
		alchemy.RegisterLoader("bench_durable_ds", sampleLoader(50))
	}
	svc, err := Open(ServiceOptions{MaxInFlight: 1, QueueDepth: -1, RetainJobs: 256, StateDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer svc.Close()
	release := make(chan struct{})
	defer close(release)
	blockLoader := alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		<-release
		return nil, fmt.Errorf("bench blocker")
	})
	blocker := alchemy.Taurus()
	blocker.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name: "pin", Algorithms: []string{"dtree"}, DataLoader: blockLoader}))
	pin, err := svc.Submit(context.Background(), blocker, WithSearchConfig(fastConfig()))
	if err != nil {
		b.Fatal(err)
	}

	p := alchemy.Taurus()
	p.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name: "bench", Algorithms: []string{"dtree"},
		DataLoader: alchemy.NamedLoader("bench_durable_ds")}))
	cfg := fastConfig()
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		b.StartTimer()
		job, err := svc.Submit(context.Background(), p, WithSearchConfig(cfg))
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		job.Cancel()
	}
	if mean := b.Elapsed() / time.Duration(b.N); mean > time.Millisecond {
		b.Fatalf("durable Submit mean latency %v exceeds the 1ms budget", mean)
	}
	pin.Cancel()
}

// BenchmarkTuneAutopilot runs the serving autotuner against the
// deterministic analytic landscape and sweeps the published coarse knob
// grid (the AutoTM-style yardstick), reporting how far the tuner's
// chosen config falls short of the best grid point — within_pct is the
// worst relative gap across {throughput, p99}, clamped at 0 when the
// tuner wins, and the gate is within_pct <= 10. The sim evaluator (not
// wall-clock replay) keeps the metric noise-free.
func BenchmarkTuneAutopilot(b *testing.B) {
	eval := tune.SimEvaluator()
	slo, err := tune.ParseSLO("p99<=2ms,drops=0")
	if err != nil {
		b.Fatal(err)
	}
	opts := tune.Options{Seed: 9, Budget: 24, MaxShards: 8, SLO: slo, Evaluate: eval}
	var rep *tune.Report
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep, err = tune.Run(context.Background(), nil, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()

	grid, err := tune.Grid(context.Background(), eval, slo, tune.CoarseGrid(8))
	if err != nil {
		b.Fatal(err)
	}
	bestTput, bestP99 := 0.0, math.MaxFloat64
	for _, c := range grid {
		if !c.Feasible {
			continue
		}
		bestTput = math.Max(bestTput, c.Metrics.Throughput)
		bestP99 = math.Min(bestP99, float64(c.Metrics.P99))
	}
	if bestTput == 0 {
		b.Fatal("no feasible grid point — the landscape or SLO regressed")
	}
	chosen := rep.Chosen.Metrics
	gapTput := 100 * (bestTput - chosen.Throughput) / bestTput
	gapP99 := 100 * (float64(chosen.P99) - bestP99) / bestP99
	within := math.Max(0, math.Max(gapTput, gapP99))
	if within > 10 {
		b.Fatalf("tuner lands %.1f%% short of the best coarse-grid point, gate 10%%", within)
	}
	b.ReportMetric(within, "within_pct")
	b.ReportMetric(chosen.Throughput, "tuner_tput")
	b.ReportMetric(bestTput, "grid_tput")
	b.ReportMetric(float64(chosen.P99)/1e3, "tuner_p99_us")
	b.ReportMetric(bestP99/1e3, "grid_p99_us")
	b.ReportMetric(float64(len(rep.Front)), "front_size")
}
