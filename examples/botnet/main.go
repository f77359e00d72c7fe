// Per-packet botnet detection: the §5.1.1 reaction-time story. A model
// trained on full-flow flowmarkers is deployed for per-packet inference on
// partial histograms, and the example streams a P2P packet trace through
// it, reporting how many packets into a conversation the botnet is caught
// versus waiting out FlowLens's 3,600-second aggregation window.
//
//	go run ./examples/botnet
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ir"
	"repro/internal/packet"
	"repro/internal/stream"
	"repro/internal/synth/botnet"
)

func main() {
	// Generate the P2P corpus: benign uTorrent/Vuze/eMule/Frostwire
	// conversations mixed with Storm/Waledac C&C.
	flows, err := botnet.Generate(botnet.Config{Flows: 800, BotnetP: 0.4, LabelNoise: 0.03, Seed: 17})
	if err != nil {
		log.Fatal(err)
	}
	cut := len(flows) * 3 / 4

	// Train on full flowmarkers (the FlowLens protocol), normalized to
	// frequencies so partial histograms share the representation.
	train, err := botnet.FlowmarkerDataset(flows[:cut], packet.PaperBD)
	if err != nil {
		log.Fatal(err)
	}
	test, err := botnet.PartialDataset(flows[cut:], packet.PaperBD, 8)
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range []*dataset.Dataset{train, test} {
		for i := 0; i < d.Len(); i++ {
			botnet.Frequencies(d.X.Row(i), packet.PaperBD)
		}
	}

	app := core.App{Name: "botnet_detection", Train: train, Test: test, Normalize: true}
	cfg := core.DefaultSearchConfig()
	cfg.Algorithms = []ir.Kind{ir.DNN}
	cfg.MaxHiddenLayers = 8
	cfg.MaxNeurons = 12
	cfg.BO.InitSamples = 4
	cfg.BO.Iterations = 8

	res, err := core.Search(context.Background(), app, backend.NewTaurusTarget(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if res.Best == nil {
		log.Fatal("no feasible model found")
	}
	model := res.Best.Model
	fmt.Printf("searched model: %d -> %v -> 2 (%d params), per-packet F1 %.1f%%\n",
		model.Inputs, model.HiddenWidths(), model.ParamCount(), res.Best.Metric*100)
	fmt.Printf("fabric: %.0f CUs / %.0f MUs, %.0f ns per decision\n\n",
		res.Best.Verdict.Metrics["cus"], res.Best.Verdict.Metrics["mus"],
		res.Best.Verdict.Metrics["latency_ns"])

	// Stream the held-out trace through the deployed pipeline.
	classify := stream.ModelFunc(func(f []float64) (int, error) {
		return model.InferQ(botnet.Frequencies(append([]float64(nil), f...), packet.PaperBD))
	})
	trace := botnet.MergePackets(flows[cut:])
	pp, err := stream.Run(packet.PaperBD, classify, trace, 4)
	if err != nil {
		log.Fatal(err)
	}
	fl, err := stream.RunFlowLevel(packet.PaperBD, classify, trace, 3600*time.Second)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("streamed %d packets over %d conversations (%d botnet)\n",
		pp.PacketsProcessed, pp.Flows, pp.BotnetFlows)
	fmt.Printf("per-packet detection: %.0f%% of botnets flagged, on average %.1f packets in\n",
		100*float64(pp.DetectedFlows)/float64(pp.BotnetFlows), pp.MeanDetectionPackets)
	fmt.Printf("reaction time:        %v into the conversation (per-packet)\n", pp.MeanDetectionTime.Round(time.Second))
	fmt.Printf("                      %v (flow-level with 3600 s window)\n", fl.MeanReactionTime.Round(time.Second))
	fmt.Printf("per-packet F1 %.3f vs flow-level F1 %.3f\n", pp.F1(), fl.F1())
}
