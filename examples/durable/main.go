// Durable service: crash-safe compilation and serving. A Service opened
// with a StateDir journals every job transition write-ahead, stores each
// compiled pipeline in an on-disk content-addressed artifact store, and
// persists the endpoint table in a manifest. This example lives two
// service lifetimes over one state directory: the first compiles a
// pipeline and serves it behind an endpoint, the second — standing in
// for the process that comes back after a crash or redeploy — replays
// the journal, answers the identical submission from the artifact store
// with zero search work, and resumes serving the restored endpoint.
// See docs/operations.md for the on-disk layout and recovery semantics.
//
//	go run ./examples/durable
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"repro/alchemy"
	"repro/internal/synth/nslkdd"

	homunculus "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "homunculus-state-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Durable recovery needs wire-transportable specs: register the
	// dataset by name so the journal can record — and the next lifetime
	// can replay — the exact declaration.
	alchemy.RegisterLoader("durable_flows", alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
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
			DataLoader:         alchemy.NamedLoader("durable_flows"),
		})
		platform := alchemy.Taurus()
		platform.Schedule(model)
		return platform
	}
	ctx := context.Background()

	// --- Lifetime one: compile and serve. ---
	svc, err := homunculus.Open(homunculus.ServiceOptions{MaxInFlight: 2, StateDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	job, err := svc.Submit(ctx, declare(), homunculus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := job.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lifetime 1: compiled %s (spec %.12s...)\n", job.ID(), job.Status().SpecHash)
	if _, err := svc.CreateEndpoint("ad", job.ID(), homunculus.EndpointOptions{
		Serving: homunculus.ServingConfig{BatchSize: 8},
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("lifetime 1: endpoint \"ad\" serving; shutting down")
	if err := svc.Close(); err != nil {
		log.Fatal(err)
	}

	// --- Lifetime two: the same directory, a fresh process. ---
	svc2, err := homunculus.Open(homunculus.ServiceOptions{MaxInFlight: 2, StateDir: dir})
	if err != nil {
		log.Fatal(err)
	}
	defer svc2.Close()
	rep := svc2.Recovery()
	fmt.Printf("lifetime 2: recovered %d journal records, %d results warm, endpoints restored: %v\n",
		rep.JournalRecords, len(rep.JobsRecovered), rep.EndpointsRestored)

	// The identical declaration costs nothing: the artifact store
	// answers it without a single search iteration.
	again, err := svc2.Submit(ctx, declare(), homunculus.WithSeed(7))
	if err != nil {
		log.Fatal(err)
	}
	if _, err := again.Wait(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lifetime 2: identical resubmit %s: cache hit: %v\n", again.ID(), again.Status().CacheHit)

	// The endpoint survived the restart and answers immediately.
	ep, ok := svc2.Endpoint("ad")
	if !ok {
		log.Fatal("endpoint \"ad\" was not restored")
	}
	class, err := ep.Classify([]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lifetime 2: restored endpoint classified a flow as class %d\n", class)
}
