// Service: the job-based compilation API. A long-lived
// homunculus.Service admits compilations under bounded concurrency and
// answers identical submissions from its content-addressed cache. Two
// identical jobs are submitted concurrently here — single-flight
// coalescing runs ONE search and both handles resolve to the same
// pipeline; a third submission with a different seed misses the cache.
// The winning pipeline then serves live traffic behind a named endpoint,
// the versioned serving surface.
//
//	go run ./examples/service
package main

import (
	"context"
	"fmt"
	"log"

	"repro/alchemy"
	"repro/internal/synth/nslkdd"

	homunculus "repro"
)

func main() {
	// Register the dataset in the catalog: named references make specs
	// wire-transportable and give the cache a cheap fingerprint.
	alchemy.RegisterLoader("ad_flows", alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		cfg := nslkdd.DefaultConfig()
		cfg.Samples = 1500
		train, test, err := nslkdd.TrainTest(cfg)
		if err != nil {
			return nil, err
		}
		return alchemy.FromDatasets(train, test), nil
	}))

	declare := func() *alchemy.Platform {
		model := alchemy.NewModel(alchemy.ModelSpec{
			Name:               "anomaly_detection",
			OptimizationMetric: "f1",
			Algorithms:         []string{"dnn"},
			DataLoader:         alchemy.NamedLoader("ad_flows"),
		})
		platform := alchemy.Taurus()
		platform.Schedule(model)
		return platform
	}

	svc := homunculus.New(homunculus.ServiceOptions{MaxInFlight: 2, QueueDepth: 16, CacheEntries: 32})
	defer svc.Close()
	ctx := context.Background()

	// Two identical submissions, back to back: Submit returns
	// immediately with handles; the service elects one leader to compile
	// while the other coalesces onto its result.
	jobA, err := svc.Submit(ctx, declare(), homunculus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	jobB, err := svc.Submit(ctx, declare(), homunculus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("submitted %s and %s (states: %s, %s)\n",
		jobA.ID(), jobB.ID(), jobA.Status().State, jobB.Status().State)

	// Follow job A's progress through its event subscription.
	go func() {
		for ev := range jobA.Events() {
			if !ev.Done {
				continue
			}
			fmt.Printf("  [%s] %s %s done\n", ev.Platform, ev.Stage, ev.App)
		}
	}()

	pipeA, err := jobA.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	pipeB, err := jobB.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job A: metric %.4f, cache hit: %v\n", pipeA.Apps[0].Metric, jobA.Status().CacheHit)
	fmt.Printf("job B: metric %.4f, cache hit: %v (same pipeline: %v)\n",
		pipeB.Apps[0].Metric, jobB.Status().CacheHit, pipeA == pipeB)

	// A different seed is a different content address: cache miss.
	jobC, err := svc.Submit(ctx, declare(), homunculus.WithSeed(8))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := jobC.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("job C (seed 8): cache hit: %v\n", jobC.Status().CacheHit)

	// Serve job A behind a named endpoint — the serving surface: a stable
	// route with versioned revisions, canary/shadow rollouts, and
	// rollback (docs/serving.md).
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
	fmt.Printf("endpoint %q (stable rev 1) classified a live flow as class %d\n", ep.Name(), class)
	if _, err := svc.DeleteEndpoint(ep.Name()); err != nil {
		log.Fatal(err)
	}
}
