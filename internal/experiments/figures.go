package experiments

import (
	"fmt"
	"time"

	"repro/alchemy"
	"repro/internal/ir"
	"repro/internal/packet"
	"repro/internal/stream"
	"repro/internal/synth/botnet"
	"repro/internal/taurus"
)

// Figure4Data carries the BO trajectory behind the regret plot: the raw
// per-iteration F1 of each evaluated configuration (the scatter the paper
// plots — poor initial samples, then exploration/exploitation around the
// incumbent) and the running best.
type Figure4Data struct {
	Raw  []float64 // achieved F1 (%) of the configuration tried at each iteration
	Best []float64 // running-best feasible F1 (%)
}

// Figure4 reproduces the regret plot for the anomaly-detection DNN on the
// Map-Reduce grid (§3.3): the Hom-AD row of Table 2, compiled by the
// product, read back as its BO trajectory.
func Figure4(b Budget) (Figure4Data, error) {
	if err := b.Validate(); err != nil {
		return Figure4Data{}, err
	}
	apps, err := compile([]job{table2Apps(b)[0].hom})
	if err != nil {
		return Figure4Data{}, err
	}
	if apps[0].Model == nil {
		return Figure4Data{}, fmt.Errorf("experiments: figure4 search found no model")
	}
	run := trajectory(apps[0])
	var out Figure4Data
	for _, ev := range run.History {
		out.Raw = append(out.Raw, ev.Objective*100)
	}
	for _, v := range run.BestByIteration() {
		out.Best = append(out.Best, v*100)
	}
	return out, nil
}

// FormatFigure4 renders the trajectory.
func FormatFigure4(d Figure4Data) string {
	s := "iter\tF1(%)\trunning best\n"
	for i := range d.Raw {
		s += fmt.Sprintf("%d\t%.2f\t%.2f\n", i+1, d.Raw[i], d.Best[i])
	}
	return s
}

// Figure6Data holds the class-averaged histograms behind Figure 6.
type Figure6Data struct {
	BenignPL, BotnetPL   []float64
	BenignIPT, BotnetIPT []float64
}

// Figure6 reproduces the flow-level packet-length and inter-arrival-time
// histograms averaged across all flows, separated by class.
func Figure6(b Budget) (Figure6Data, error) {
	if err := b.Validate(); err != nil {
		return Figure6Data{}, err
	}
	flows, err := bdFlows(b)
	if err != nil {
		return Figure6Data{}, err
	}
	pl, ipt, err := botnet.AverageHistograms(flows, packet.PaperBD)
	if err != nil {
		return Figure6Data{}, err
	}
	return Figure6Data{
		BenignPL: pl[0], BotnetPL: pl[1],
		BenignIPT: ipt[0], BotnetIPT: ipt[1],
	}, nil
}

// FormatFigure6 renders the histogram pairs.
func FormatFigure6(d Figure6Data) string {
	s := "Packet-length histogram (avg count per flow, 64 B bins)\nbin\tbenign\tbotnet\n"
	for i := range d.BenignPL {
		s += fmt.Sprintf("%d\t%.2f\t%.2f\n", i+1, d.BenignPL[i], d.BotnetPL[i])
	}
	s += "Inter-arrival-time histogram (avg count per flow, 512 s bins)\nbin\tbenign\tbotnet\n"
	for i := range d.BenignIPT {
		s += fmt.Sprintf("%d\t%.2f\t%.2f\n", i+1, d.BenignIPT[i], d.BotnetIPT[i])
	}
	return s
}

// Figure7Series is one KMeans-under-budget regret series.
type Figure7Series struct {
	Tables int
	VScore []float64 // running-best V-measure (percent) per iteration
}

// Figure7 reproduces the V-measure regret plots for KMeans traffic
// clustering under MAT table budgets 1..5 (KMeans1..KMeans5): Homunculus
// conforms the clustering to each budget, trading fidelity for tables.
// Each budget is one compilation of the same declared model on a Tofino
// platform constrained to that many tables.
func Figure7(b Budget) ([]Figure7Series, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	model := alchemy.NewModel(alchemy.ModelSpec{
		Name: "traffic_classification", OptimizationMetric: "vmeasure",
		Algorithms: []string{"kmeans"}, DataLoader: tcLoader(b),
	})
	var jobs []job
	for tables := 1; tables <= 5; tables++ {
		search := b.SearchConfig()
		search.MaxClusters = 8
		search.Seed = b.Seed + int64(tables)*31
		jobs = append(jobs, job{kind: "tofino", tables: tables, model: model, search: search})
	}
	apps, err := compile(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]Figure7Series, len(apps))
	for i, app := range apps {
		out[i].Tables = jobs[i].tables
		for _, v := range trajectory(app).BestByIteration() {
			out[i].VScore = append(out[i].VScore, v*100)
		}
	}
	return out, nil
}

// FormatFigure7 renders the budget series.
func FormatFigure7(series []Figure7Series) string {
	s := "KMeans V-measure under MAT budgets (running best, %)\n"
	for _, sr := range series {
		s += fmt.Sprintf("KMeans%d:", sr.Tables)
		for _, v := range sr.VScore {
			s += fmt.Sprintf(" %.1f", v)
		}
		s += "\n"
	}
	return s
}

// ReactionResult summarizes the §5.1.1 reaction-time comparison.
type ReactionResult struct {
	PerPacketF1          float64
	FlowLevelF1          float64
	MeanDetectionPackets float64
	PerPacketReaction    time.Duration // mean time into a flow at detection
	FlowLevelReaction    time.Duration // aggregation-window wait
	InferenceLatencyNS   float64       // per-decision pipeline latency
	DetectionRate        float64
	// FlowCapacityGain is how many more conversations the 30-bin
	// flowmarker fits in a fixed register budget vs FlowLens's 151-bin
	// layout (§5.1.2: "reduce flowmarker size by 5×, hence increasing the
	// number of flows we can handle on a switch proportionally").
	FlowCapacityGain float64
}

// ReactionTime trains the BD model on full flowmarkers, then compares
// per-packet partial-histogram detection against flow-level aggregation
// with FlowLens's 3,600 s window.
func ReactionTime(b Budget) (ReactionResult, error) {
	if err := b.Validate(); err != nil {
		return ReactionResult{}, err
	}
	train, _, err := datasets(bdLoader(b))
	if err != nil {
		return ReactionResult{}, err
	}
	flows, err := bdFlows(b)
	if err != nil {
		return ReactionResult{}, err
	}
	model, _, err := trainBaselineDNN("bd_react", train, train, []int{10, 10, 10, 10}, 2, b.Epochs, b.Seed+3)
	if err != nil {
		return ReactionResult{}, err
	}
	// Deploy: measure the per-decision latency on Taurus.
	rep, err := taurus.Estimate(taurus.DefaultGrid(), taurus.DefaultConstraints(), stripNorm(model))
	if err != nil {
		return ReactionResult{}, err
	}

	classify := stream.ModelFunc(func(f []float64) (int, error) {
		return model.InferQ(botnet.Frequencies(append([]float64(nil), f...), packet.PaperBD))
	})
	// Evaluate on the held-out tail of the corpus: the flows behind the
	// loader's partial-window test split.
	cut := len(flows) * 3 / 4
	test := botnet.MergePackets(flows[cut:])

	pp, err := stream.Run(packet.PaperBD, classify, test, 4)
	if err != nil {
		return ReactionResult{}, err
	}
	fl, err := stream.RunFlowLevel(packet.PaperBD, classify, test, 3600*time.Second)
	if err != nil {
		return ReactionResult{}, err
	}
	res := ReactionResult{
		PerPacketF1:          pp.F1(),
		FlowLevelF1:          fl.F1(),
		MeanDetectionPackets: pp.MeanDetectionPackets,
		PerPacketReaction:    pp.MeanDetectionTime,
		FlowLevelReaction:    fl.MeanReactionTime,
		InferenceLatencyNS:   rep.LatencyNS,
	}
	if pp.BotnetFlows > 0 {
		res.DetectionRate = float64(pp.DetectedFlows) / float64(pp.BotnetFlows)
	}
	flowlens := packet.HistConfig{PLBins: 94, PLBinSize: 64, IPTBins: 57, IPTBinSize: 512 * time.Second}
	budget := 1 << 20
	res.FlowCapacityGain = float64(packet.FlowCapacity(budget, packet.PaperBD)) /
		float64(packet.FlowCapacity(budget, flowlens))
	return res, nil
}

// stripNorm drops the normalizer for resource estimation (the affine is
// folded into feature extraction and costs no fabric resources).
func stripNorm(m *ir.Model) *ir.Model {
	c := *m
	c.Mean, c.Std = nil, nil
	return &c
}

// FormatReaction renders the reaction-time comparison.
func FormatReaction(r ReactionResult) string {
	return fmt.Sprintf(
		"per-packet F1: %.3f  flow-level F1: %.3f\n"+
			"detection: %.1f packets into flow (%.0f%% of botnet flows)\n"+
			"reaction time: per-packet %v vs flow-level %v\n"+
			"per-decision pipeline latency: %.0f ns\n"+
			"flow capacity vs 151-bin FlowLens layout: %.1fx\n",
		r.PerPacketF1, r.FlowLevelF1,
		r.MeanDetectionPackets, r.DetectionRate*100,
		r.PerPacketReaction, r.FlowLevelReaction,
		r.InferenceLatencyNS, r.FlowCapacityGain)
}
