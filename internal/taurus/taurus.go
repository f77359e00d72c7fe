// Package taurus models the Taurus per-packet ML switch (Swamy et al.,
// ASPLOS 2022): a Plasticine-style coarse-grained reconfigurable array of
// Compute Units (CUs) and Memory Units (MUs) inserted as a MapReduce block
// into a PISA pipeline. Homunculus uses this model the way the paper uses
// the SARA/Tungsten cycle-accurate simulators (§3.3): to answer, for a
// candidate model, (1) how many CUs and MUs does the mapped pipeline
// consume, (2) what latency and throughput does it achieve, and (3) does
// it fit the grid and meet the performance constraints.
//
// Substitution note (DESIGN.md): we replace the authors' cycle-accurate
// simulator with an analytic pipeline model. The optimization core only
// consumes the verdict tuple (CUs, MUs, latency, throughput, feasible), so
// any model that is monotone in layer width/depth preserves the BO search
// landscape. Absolute resource numbers are calibrated to land in the same
// range as Table 2 but are not bit-identical to the proprietary toolchain.
package taurus

import (
	"fmt"
	"math"

	"repro/internal/ir"
)

// Grid describes the CGRA fabric configuration of a Taurus switch
// (the "resources": {"rows": R, "cols": C} constraint in Alchemy).
type Grid struct {
	Rows, Cols int
	// ClockGHz is the fabric clock; the paper's testbed targets 1 GHz so
	// one pipeline stage per nanosecond.
	ClockGHz float64
	// VectorWidth is the SIMD lane width of one CU's map stage.
	VectorWidth int
}

// DefaultGrid is the 16×16 configuration used throughout the evaluation.
func DefaultGrid() Grid {
	return Grid{Rows: 16, Cols: 16, ClockGHz: 1.0, VectorWidth: 8}
}

// Validate reports configuration errors.
func (g Grid) Validate() error {
	if g.Rows <= 0 || g.Cols <= 0 {
		return fmt.Errorf("taurus: grid %dx%d invalid", g.Rows, g.Cols)
	}
	if g.ClockGHz <= 0 {
		return fmt.Errorf("taurus: clock %v GHz invalid", g.ClockGHz)
	}
	if g.VectorWidth <= 0 {
		return fmt.Errorf("taurus: vector width %d invalid", g.VectorWidth)
	}
	return nil
}

// CUs returns the total compute units on the fabric. Half the grid
// columns carry CUs and half MUs in Plasticine's checkerboard layout, but
// the paper counts the full R×C of each type; we follow the paper.
func (g Grid) CUs() int { return g.Rows * g.Cols }

// MUs returns the total memory units on the fabric.
func (g Grid) MUs() int { return g.Rows * g.Cols }

// Constraints are the performance requirements from the Alchemy program
// ("performance": {"throughput": GPkt/s, "latency": ns}).
type Constraints struct {
	ThroughputGPkts float64 // minimum packets/ns (1.0 = 1 GPkt/s)
	LatencyNS       float64 // maximum end-to-end latency
}

// DefaultConstraints is the evaluation setting: 1 GPkt/s line rate within
// 500 ns.
func DefaultConstraints() Constraints {
	return Constraints{ThroughputGPkts: 1.0, LatencyNS: 500}
}

// Report is the verdict the backend returns to the optimization core.
type Report struct {
	CUs             int
	MUs             int
	Stages          int     // pipeline depth in fabric cycles
	LatencyNS       float64 // parser + fabric + deparser
	ThroughputGPkts float64
	Fits            bool   // resources within grid
	MeetsPerf       bool   // latency and throughput constraints satisfied
	Reason          string // human-readable infeasibility cause ("" if feasible)
}

// Feasible reports whether the model can be deployed under the grid and
// constraints.
func (r Report) Feasible() bool { return r.Fits && r.MeetsPerf }

// parserOverheadNS is the fixed PISA parse/deparse latency budget around
// the MapReduce block.
const parserOverheadNS = 20.0

// Estimate maps a model onto the grid and computes the Report.
func Estimate(g Grid, c Constraints, m *ir.Model) (Report, error) {
	if err := g.Validate(); err != nil {
		return Report{}, err
	}
	if err := m.Validate(); err != nil {
		return Report{}, err
	}
	var rep Report
	switch m.Kind {
	case ir.DNN:
		rep = estimateDNN(g, m)
	case ir.SVM:
		rep = estimateLinear(g, m.Outputs, m.Inputs)
	case ir.KMeans:
		// A distance computation per centroid: same dataflow as a linear
		// layer with squared-difference map instead of multiply.
		rep = estimateLinear(g, m.Outputs, m.Inputs)
	case ir.DTree:
		rep = estimateTree(g, m)
	default:
		return Report{}, fmt.Errorf("taurus: unsupported model kind %v", m.Kind)
	}

	rep.Fits = rep.CUs <= g.CUs() && rep.MUs <= g.MUs()
	if !rep.Fits {
		rep.Reason = fmt.Sprintf("needs %d CUs / %d MUs, grid has %d/%d", rep.CUs, rep.MUs, g.CUs(), g.MUs())
	}

	// Timing: one stage per clock; the fabric is fully pipelined (II = 1)
	// when it fits, so throughput equals the clock. If the model does not
	// fit spatially, the compiler would have to time-multiplex layers,
	// dividing throughput by the over-subscription factor.
	cycleNS := 1.0 / g.ClockGHz
	rep.LatencyNS = parserOverheadNS + float64(rep.Stages)*cycleNS
	ii := 1.0
	if rep.CUs > g.CUs() {
		ii = math.Ceil(float64(rep.CUs) / float64(g.CUs()))
	}
	rep.ThroughputGPkts = g.ClockGHz / ii

	rep.MeetsPerf = rep.LatencyNS <= c.LatencyNS && rep.ThroughputGPkts >= c.ThroughputGPkts
	if rep.Fits && !rep.MeetsPerf {
		rep.Reason = fmt.Sprintf("latency %.0f ns (max %.0f) / throughput %.2f GPkt/s (min %.2f)",
			rep.LatencyNS, c.LatencyNS, rep.ThroughputGPkts, c.ThroughputGPkts)
	}
	return rep, nil
}

// estimateDNN maps each dense layer to a map-reduce pattern:
//   - map: out × ceil(in/V) vector-MAC CUs running in parallel (line rate
//     requires full spatial unrolling of every layer),
//   - reduce: a ceil(log2(ceil(in/V)))-deep adder tree folded into
//     ceil(out/2) CUs,
//   - activation: ceil(out/4) CUs,
//   - memory: weight banks (VectorWidth*4 words per MU) plus a
//     double-buffered activation SRAM pair per layer boundary and a
//     per-layer configuration MU.
func estimateDNN(g Grid, m *ir.Model) Report {
	var rep Report
	v := g.VectorWidth
	for _, l := range m.Layers {
		lanes := ceilDiv(l.In, v)
		mapCUs := l.Out * lanes
		reduceCUs := ceilDiv(l.Out, 2) * intLog2(lanes)
		actCUs := ceilDiv(l.Out, 4)
		rep.CUs += mapCUs + reduceCUs + actCUs

		params := l.In*l.Out + l.Out
		weightMUs := ceilDiv(params, v*4)
		bufferMUs := 2 * ceilDiv(l.Out, 4)
		rep.MUs += weightMUs + bufferMUs + 1

		// Stage depth: 1 map + reduce tree + 1 activation + 1 buffer.
		rep.Stages += 1 + intLog2(lanes) + intLog2(min(l.In, v)) + 2
	}
	return rep
}

// estimateLinear covers SVM hyperplanes and KMeans distance computations:
// `units` parallel dot products of length `in`.
func estimateLinear(g Grid, units, in int) Report {
	var rep Report
	v := g.VectorWidth
	lanes := ceilDiv(in, v)
	rep.CUs = units*lanes + ceilDiv(units, 2)*intLog2(lanes) + 1 // +1 argmax
	params := units * (in + 1)
	rep.MUs = ceilDiv(params, v*4) + 2
	rep.Stages = 1 + intLog2(lanes) + intLog2(min(in, v)) + 2
	return rep
}

// estimateTree maps a decision tree: one comparator CU per internal node
// level (levels execute as pipeline stages), with the node parameters in
// one MU per two levels.
func estimateTree(g Grid, m *ir.Model) Report {
	depth := m.Tree.Depth()
	nodes := countInternal(m.Tree)
	return Report{
		CUs:    nodes + 1,
		MUs:    ceilDiv(nodes, 8) + 1,
		Stages: depth + 2,
	}
}

func countInternal(n *ir.TreeNode) int {
	if n == nil || n.Feature < 0 {
		return 0
	}
	return 1 + countInternal(n.Left) + countInternal(n.Right)
}

// EstimateComposition computes the resources of a set of models deployed
// simultaneously on one grid (the app-chaining experiment, Table 3). The
// fabric executes models spatially side by side; sequential (>) versus
// parallel (|) composition changes only the inter-model routing, which
// fits in already-allocated CUs, so resource totals are strategy-
// independent — the property Table 3 demonstrates. Latency, however, adds
// along the longest sequential chain.
//
// chainDepth is the depth of the longest sequential path in the
// composition DAG (1 for a fully parallel schedule, n for a linear chain).
func EstimateComposition(g Grid, c Constraints, models []*ir.Model, chainDepth int) (Report, error) {
	if len(models) == 0 {
		return Report{}, fmt.Errorf("taurus: empty composition")
	}
	if chainDepth < 1 || chainDepth > len(models) {
		return Report{}, fmt.Errorf("taurus: chain depth %d out of range [1,%d]", chainDepth, len(models))
	}
	var total Report
	maxStages := 0
	sumStages := 0
	for _, m := range models {
		r, err := Estimate(g, c, m)
		if err != nil {
			return Report{}, err
		}
		total.CUs += r.CUs
		total.MUs += r.MUs
		if r.Stages > maxStages {
			maxStages = r.Stages
		}
		sumStages += r.Stages
	}
	// Longest path: interpolate between parallel (max) and chained (sum).
	if chainDepth == 1 {
		total.Stages = maxStages
	} else {
		avg := float64(sumStages) / float64(len(models))
		total.Stages = int(math.Ceil(avg * float64(chainDepth)))
		if total.Stages > sumStages {
			total.Stages = sumStages
		}
		if total.Stages < maxStages {
			total.Stages = maxStages
		}
	}
	cycleNS := 1.0 / g.ClockGHz
	total.LatencyNS = parserOverheadNS + float64(total.Stages)*cycleNS
	total.Fits = total.CUs <= g.CUs() && total.MUs <= g.MUs()
	ii := 1.0
	if total.CUs > g.CUs() {
		ii = math.Ceil(float64(total.CUs) / float64(g.CUs()))
	}
	total.ThroughputGPkts = g.ClockGHz / ii
	total.MeetsPerf = total.LatencyNS <= c.LatencyNS && total.ThroughputGPkts >= c.ThroughputGPkts
	if !total.Fits {
		total.Reason = fmt.Sprintf("composition needs %d CUs / %d MUs, grid has %d/%d",
			total.CUs, total.MUs, g.CUs(), g.MUs())
	} else if !total.MeetsPerf {
		total.Reason = fmt.Sprintf("composition latency %.0f ns / throughput %.2f GPkt/s violates constraints",
			total.LatencyNS, total.ThroughputGPkts)
	}
	return total, nil
}

func ceilDiv(a, b int) int {
	if b <= 0 {
		return 0
	}
	return (a + b - 1) / b
}

// intLog2 returns ceil(log2(n)) for n >= 1 (0 for n <= 1).
func intLog2(n int) int {
	l := 0
	for v := 1; v < n; v <<= 1 {
		l++
	}
	return l
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
