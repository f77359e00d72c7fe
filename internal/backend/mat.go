package backend

// The match-action-table (MAT) target: a Tofino/RMT-style switch
// pipeline, which Homunculus targets through IIsy (§4). The IIsy mapping
// makes the relation between algorithm parameters and tables explicit,
// which Homunculus exploits as a feasibility constraint:
//
//   - SVM: one table per feature (each table matches a feature-value range
//     and emits per-class partial scores) plus one decision table;
//   - KMeans: one table per cluster ("IIsy restricts a single MAT for each
//     cluster", §5.2.2);
//   - Decision tree: one table per tree level plus one leaf-action table.
//
// The model answers table and entry budgets, plus line-rate timing (a MAT
// pipeline is fixed-latency: fitting the pipeline means running at line
// rate, which is why Figure 7 trades model fidelity for tables rather than
// throughput).

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/p4gen"
)

// MATPipeline describes a MAT switch configuration.
type MATPipeline struct {
	Tables          int // total match-action tables available to the model
	EntriesPerTable int // TCAM/SRAM entries per table
	StageLatencyNS  float64
	LineRateGPkts   float64
}

// DefaultMATPipeline approximates one Tofino pipe: the evaluation
// constrains models to small table budgets (Figure 7 sweeps 1–5), but the
// physical pipe offers more.
func DefaultMATPipeline() MATPipeline {
	return MATPipeline{Tables: 32, EntriesPerTable: 4096, StageLatencyNS: 1.0, LineRateGPkts: 1.0}
}

// Validate reports configuration errors.
func (p MATPipeline) Validate() error {
	if p.Tables <= 0 {
		return fmt.Errorf("mat: Tables must be positive, got %d", p.Tables)
	}
	if p.EntriesPerTable <= 0 {
		return fmt.Errorf("mat: EntriesPerTable must be positive, got %d", p.EntriesPerTable)
	}
	if p.StageLatencyNS <= 0 {
		return fmt.Errorf("mat: StageLatencyNS must be positive, got %v", p.StageLatencyNS)
	}
	if p.LineRateGPkts <= 0 {
		return fmt.Errorf("mat: LineRateGPkts must be positive, got %v", p.LineRateGPkts)
	}
	return nil
}

// matReport is the MAT pipeline's verdict for a candidate model.
type matReport struct {
	TablesUsed      int
	EntriesUsed     int // worst-case entries in the largest table
	LatencyNS       float64
	ThroughputGPkts float64
	Fits            bool
	Reason          string
}

// rangeEntriesPerFeature is how many range-match entries IIsy installs to
// cover one quantized feature dimension (8-bit quantization → up to 256
// value ranges, merged; we charge the worst case after prefix merging).
const rangeEntriesPerFeature = 64

// estimateMAT maps the model onto the MAT pipeline.
func estimateMAT(p MATPipeline, m *ir.Model) (matReport, error) {
	if err := p.Validate(); err != nil {
		return matReport{}, err
	}
	if err := m.Validate(); err != nil {
		return matReport{}, err
	}
	var rep matReport
	switch m.Kind {
	case ir.SVM:
		// One table per feature + decision table.
		rep.TablesUsed = m.Inputs + 1
		rep.EntriesUsed = rangeEntriesPerFeature
	case ir.KMeans:
		// One table per cluster.
		rep.TablesUsed = len(m.Centroids)
		rep.EntriesUsed = rangeEntriesPerFeature * max(1, m.Inputs/2)
	case ir.DTree:
		rep.TablesUsed = m.Tree.Depth() + 1
		// Entries per level table grow with the node count at that level,
		// bounded by leaves.
		rep.EntriesUsed = max(1, countLeaves(m.Tree))
	case ir.DNN:
		// MAT switches cannot execute general matrix multiplies at line
		// rate; N2Net-style BNN folding charges ~12 tables per layer
		// (§2: "a single layer of a manually designed anomaly-detection
		// DNN in N2Net takes up to 12 MATs").
		rep.TablesUsed = 12 * len(m.Layers)
		rep.EntriesUsed = rangeEntriesPerFeature * m.Inputs
	default:
		return matReport{}, fmt.Errorf("mat: unsupported model kind %v", m.Kind)
	}

	rep.Fits = rep.TablesUsed <= p.Tables && rep.EntriesUsed <= p.EntriesPerTable
	if !rep.Fits {
		rep.Reason = fmt.Sprintf("needs %d tables × %d entries, pipeline has %d × %d",
			rep.TablesUsed, rep.EntriesUsed, p.Tables, p.EntriesPerTable)
	}
	// Fixed-function pipeline: latency is stages × per-stage latency and
	// throughput is line rate whenever the program fits.
	rep.LatencyNS = float64(rep.TablesUsed) * p.StageLatencyNS
	if rep.Fits {
		rep.ThroughputGPkts = p.LineRateGPkts
	}
	return rep, nil
}

func countLeaves(n *ir.TreeNode) int {
	if n == nil {
		return 0
	}
	if n.Feature < 0 {
		return 1
	}
	return countLeaves(n.Left) + countLeaves(n.Right)
}

// MATTarget deploys onto a match-action pipeline through IIsy.
type MATTarget struct {
	Pipeline MATPipeline
}

// NewMATTarget returns a MAT target with the given table budget (the
// Figure-7 resource sweep) atop the default pipeline geometry.
func NewMATTarget(tables int) *MATTarget {
	p := DefaultMATPipeline()
	if tables > 0 {
		p.Tables = tables
	}
	return &MATTarget{Pipeline: p}
}

func init() {
	Register(Registration{
		Kind:    "tofino",
		CodeExt: ".p4",
		Defaults: Constraints{
			Performance: Performance{ThroughputGPkts: 1, LatencyNS: 1000},
			Resources:   Resources{Tables: 32},
		},
		Factory: func(spec Spec) (Target, error) {
			if spec.Constraints.Resources.Tables < 0 {
				return nil, fmt.Errorf("MAT table budget must be positive, got %d", spec.Constraints.Resources.Tables)
			}
			return NewMATTarget(spec.Constraints.Resources.Tables), nil
		},
	})
}

// Name implements Target.
func (t *MATTarget) Name() string { return "tofino-mat" }

// Supports implements Target: DNNs are pruned upfront — general matrix
// multiplies do not map onto MATs at line rate (§3.2.1's example of
// ruling out DNNs on table-limited switches).
func (t *MATTarget) Supports(kind ir.Kind) bool { return kind != ir.DNN }

// ResourceKey implements Target: tables are the scarce MAT resource.
func (t *MATTarget) ResourceKey() string { return "tables" }

// Estimate implements Target.
func (t *MATTarget) Estimate(m *ir.Model) (Verdict, error) {
	r, err := estimateMAT(t.Pipeline, m)
	if err != nil {
		return Verdict{}, err
	}
	return Verdict{
		Feasible: r.Fits,
		Reason:   r.Reason,
		Metrics: map[string]float64{
			"tables":           float64(r.TablesUsed),
			"entries":          float64(r.EntriesUsed),
			"latency_ns":       r.LatencyNS,
			"throughput_gpkts": r.ThroughputGPkts,
		},
	}, nil
}

// Generate implements Target (P4 source).
func (t *MATTarget) Generate(m *ir.Model) (string, error) {
	p, err := p4gen.Generate(m)
	if err != nil {
		return "", fmt.Errorf("backend: MAT codegen: %w", err)
	}
	return p.Source, nil
}
