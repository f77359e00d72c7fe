package homunculus_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"

	"repro/alchemy"
	"repro/internal/synth/nslkdd"

	homunculus "repro"
)

// The paper's Figure-3 program, in Go. An operator declares the
// anomaly-detection dataset, an F1 objective, and a Taurus switch
// constrained to 1 GPkt/s and 500 ns on a 16×16 grid — and Homunculus
// searches, trains, and generates the data-plane pipeline.
func ExampleGenerate() {
	// Specify the model of choice (Figure 3, lines 17–21). The loader
	// plays the role of Figure 3's ad_loader module; here the "files"
	// come from the bundled NSL-KDD-like generator.
	model := alchemy.NewModel(alchemy.ModelSpec{
		OptimizationMetric: "f1",
		Algorithms:         []string{"dnn"},
		Name:               "anomaly_detection",
		DataLoader: alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
			train, test, err := nslkdd.TrainTest(nslkdd.DefaultConfig())
			if err != nil {
				return nil, err
			}
			return alchemy.FromDatasets(train, test), nil
		}),
	})

	// Load platform (lines 24–29).
	platform := alchemy.Taurus()
	platform.Constrain(alchemy.Constraints{
		Performance: alchemy.Performance{
			ThroughputGPkts: 1,   // GPkt/s
			LatencyNS:       500, // ns
		},
		Resources: alchemy.Resources{Rows: 16, Cols: 16},
	})

	// Schedule model and generate code (lines 32–33).
	platform.Schedule(model)
	pipeline, err := homunculus.Generate(context.Background(), platform)
	if err != nil {
		log.Fatal(err)
	}

	app := pipeline.Apps[0]
	if app.Model == nil {
		log.Fatal("no feasible model found under the given constraints")
	}
	fmt.Printf("selected algorithm:  %s\n", app.Algorithm)
	fmt.Printf("architecture:        %d -> %v -> %d\n",
		app.Model.Inputs, app.Model.HiddenWidths(), app.Model.Outputs)
	fmt.Printf("parameters:          %d\n", app.Model.ParamCount())
	fmt.Printf("F1 (quantized):      %.2f%%\n", app.Metric*100)
	fmt.Printf("resources:           %.0f CUs, %.0f MUs\n",
		app.Verdict.Metrics["cus"], app.Verdict.Metrics["mus"])
	fmt.Printf("latency:             %.0f ns at %.1f GPkt/s\n",
		app.Verdict.Metrics["latency_ns"], app.Verdict.Metrics["throughput_gpkts"])
	fmt.Println("--- generated Spatial (first lines) ---")
	for _, line := range strings.SplitN(app.Code, "\n", 6)[:5] {
		fmt.Println(line)
	}
	// Output:
	// selected algorithm:  dnn
	// architecture:        7 -> [22] -> 2
	// parameters:          222
	// F1 (quantized):      81.42%
	// resources:           37 CUs, 24 MUs
	// latency:             34 ns at 1.0 GPkt/s
	// --- generated Spatial (first lines) ---
	// // Auto-generated by Homunculus for model "anomaly_detection" (dnn)
	// // inputs=7 outputs=2 params=222 format=Q8.8
	// import spatial.dsl._
	//
	// @spatial object AnomalyDetection extends SpatialApp {
}

// registerFlows puts a 1500-sample anomaly-detection dataset in the
// loader catalog under name. Named loaders make specs wire-transportable
// and give the cache a cheap fingerprint; the durable journal needs them
// to replay a declaration.
func registerFlows(name string) {
	if alchemy.LoaderRegistered(name) {
		return
	}
	alchemy.RegisterLoader(name, alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		cfg := nslkdd.DefaultConfig()
		cfg.Samples = 1500
		train, test, err := nslkdd.TrainTest(cfg)
		if err != nil {
			return nil, err
		}
		return alchemy.FromDatasets(train, test), nil
	}))
}

// declareFlows schedules a DNN over the named dataset on a Taurus switch.
func declareFlows(loader string) *alchemy.Platform {
	platform := alchemy.Taurus()
	platform.Schedule(alchemy.NewModel(alchemy.ModelSpec{
		Name:               "anomaly_detection",
		OptimizationMetric: "f1",
		Algorithms:         []string{"dnn"},
		DataLoader:         alchemy.NamedLoader(loader),
	}))
	return platform
}

// The job-based compilation API. A long-lived Service admits
// compilations under bounded concurrency and answers identical
// submissions from its content-addressed cache: two identical jobs
// submitted back to back run ONE search between them — whichever the
// service elects to lead — and resolve to the same pipeline, while a
// different seed misses the cache. The pipeline then serves live traffic
// behind a named endpoint, the versioned serving surface.
func ExampleService() {
	registerFlows("example_flows")
	svc := homunculus.New(homunculus.ServiceOptions{MaxInFlight: 2, QueueDepth: 16, CacheEntries: 32})
	defer svc.Close()
	ctx := context.Background()

	jobA, err := svc.Submit(ctx, declareFlows("example_flows"), homunculus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	jobB, err := svc.Submit(ctx, declareFlows("example_flows"), homunculus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	pipeA, err := jobA.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	pipeB, err := jobB.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one of A and B searched: %v\n", jobA.Status().CacheHit != jobB.Status().CacheHit)
	fmt.Printf("same pipeline: %v (metric %.4f)\n", pipeA == pipeB, pipeA.Apps[0].Metric)

	jobC, err := svc.Submit(ctx, declareFlows("example_flows"), homunculus.WithSeed(8))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := jobC.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job C (seed 8): cache hit: %v\n", jobC.Status().CacheHit)

	// Serve job A behind a named endpoint: a stable route with versioned
	// revisions, canary/shadow rollouts, and rollback (docs/serving.md).
	ep, err := svc.CreateEndpoint("ad", jobA.ID(), homunculus.EndpointOptions{
		Serving: homunculus.ServingConfig{BatchSize: 8},
	})
	if err != nil {
		log.Fatal(err)
	}
	class, err := ep.Classify([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("endpoint %q classified a live flow as class %d\n", ep.Name(), class)
	if _, err := svc.DeleteEndpoint(ep.Name()); err != nil {
		log.Fatal(err)
	}
	// Output:
	// one of A and B searched: true
	// same pipeline: true (metric 0.7596)
	// job C (seed 8): cache hit: false
	// endpoint "ad" classified a live flow as class 1
}

// Crash-safe compilation and serving. A Service opened with a StateDir
// journals every job transition write-ahead, stores each compiled
// pipeline in an on-disk content-addressed artifact store, and persists
// the endpoint table in a manifest. Two service lifetimes share one state
// directory here: the first compiles a pipeline and serves it behind an
// endpoint; the second — the process that comes back after a crash or
// redeploy — replays the journal, answers the identical submission from
// the artifact store with zero search work, and resumes serving the
// restored endpoint (docs/operations.md).
func ExampleOpen() {
	dir, err := os.MkdirTemp("", "homunculus-state-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	registerFlows("example_flows")
	ctx := context.Background()

	// Lifetime one: compile and serve.
	svc, err := homunculus.Open(homunculus.ServiceOptions{MaxInFlight: 2, StateDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	job, err := svc.Submit(ctx, declareFlows("example_flows"), homunculus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := job.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := svc.CreateEndpoint("ad", job.ID(), homunculus.EndpointOptions{
		Serving: homunculus.ServingConfig{BatchSize: 8},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lifetime 1: compiled %s, endpoint \"ad\" serving; shutting down\n", job.ID())
	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}

	// Lifetime two: the same directory, a fresh process.
	svc2, err := homunculus.Open(homunculus.ServiceOptions{MaxInFlight: 2, StateDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer svc2.Close()
	rep := svc2.Recovery()
	fmt.Printf("lifetime 2: recovered %d journal records, %d results warm, endpoints restored: %v\n",
		rep.JournalRecords, len(rep.JobsRecovered), rep.EndpointsRestored)

	again, err := svc2.Submit(ctx, declareFlows("example_flows"), homunculus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := again.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lifetime 2: identical resubmit %s: cache hit: %v\n", again.ID(), again.Status().CacheHit)

	ep, ok := svc2.Endpoint("ad")
	if !ok {
		log.Fatal("endpoint \"ad\" was not restored")
	}
	class, err := ep.Classify([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lifetime 2: restored endpoint classified a flow as class %d\n", class)
	// Output:
	// lifetime 1: compiled job-000001, endpoint "ad" serving; shutting down
	// lifetime 2: recovered 2 journal records, 1 results warm, endpoints restored: [ad]
	// lifetime 2: identical resubmit job-000002: cache hit: true
	// lifetime 2: restored endpoint classified a flow as class 1
}
