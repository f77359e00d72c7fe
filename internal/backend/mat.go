package backend

// The match-action-table (MAT) target: a Tofino/RMT-style switch
// pipeline, which Homunculus targets through IIsy (§4). The layout of a
// model is the program p4gen emits for it (one table per SVM feature
// plus a bias/decision table, one per KMeans cluster, one per tree
// level), and the verdict counts that program through p4gen.Layout, so
// the search's feasibility constraint and the shipped artifact cannot
// disagree.
//
// A MAT pipeline is fixed-latency: fitting means running at line rate,
// which is why Figure 7 trades model fidelity for tables rather than
// throughput. Only the table budget is configurable.

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/p4gen"
)

// The pipe's fixed geometry: entries one table holds, per-stage latency
// and the line rate a fitting program runs at.
const (
	matEntriesPerTable = 4096
	matStageLatencyNS  = 1.0
	matLineRateGPkts   = 1.0
)

// MATTarget deploys onto a match-action pipeline through IIsy.
type MATTarget struct {
	Tables int // match-action tables available to the model
}

// NewMATTarget returns a MAT target with the given table budget (the
// Figure-7 resource sweep); 0 means one Tofino pipe's 32 tables.
func NewMATTarget(tables int) *MATTarget {
	if tables <= 0 {
		tables = 32
	}
	return &MATTarget{Tables: tables}
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

// Estimate implements Target: it counts the program Generate ships.
func (t *MATTarget) Estimate(m *ir.Model) (Verdict, error) {
	tables, entries, err := p4gen.Layout(m)
	if err != nil {
		return Verdict{}, fmt.Errorf("backend: MAT estimate: %w", err)
	}
	v := Verdict{Feasible: tables <= t.Tables && entries <= matEntriesPerTable}
	throughput := 0.0
	if v.Feasible {
		throughput = matLineRateGPkts
	} else {
		v.Reason = fmt.Sprintf("needs %d tables × %d entries, pipeline has %d × %d",
			tables, entries, t.Tables, matEntriesPerTable)
	}
	v.Metrics = map[string]float64{
		"tables":           float64(tables),
		"entries":          float64(entries),
		"latency_ns":       float64(tables) * matStageLatencyNS,
		"throughput_gpkts": throughput,
	}
	return v, nil
}

// Generate implements Target (P4 source).
func (t *MATTarget) Generate(m *ir.Model) (string, error) {
	p, err := p4gen.Generate(m)
	if err != nil {
		return "", fmt.Errorf("backend: MAT codegen: %w", err)
	}
	return p.Source, nil
}
