// Package validate is the translation-validation layer: it checks that
// the artifacts the code generators emit compute the same function as the
// model IR they were generated from.
//
// The paper's pipeline (Figure 4) lowers a trained model through the IR
// into per-platform programs — P4 match-action tables for Tofino,
// Spatial dataflow for the Taurus MapReduce fabric — and the whole value
// proposition rests on those programs classifying packets the way the
// trained model does. This package closes that loop in the Alive2 style:
// each backend gets an executable interpreter over the *shipped artifact
// text* (not a private AST — the same string the backend returns is what
// gets parsed and run), and a differential harness drives the IR's
// quantized reference semantics (ir.Model.InferQ), the P4 interpreter,
// the Spatial interpreter, and the Taurus fabric simulator with
// identical fixed-seed traffic, requiring bit-identical class outputs.
// On divergence it emits a minimized repro artifact (see repro.go) that
// replays as a regression test.
//
// Evaluator coverage per model family:
//
//	svm, kmeans, dtree:  InferQ + P4 + Spatial        (sim is DNN-only)
//	dnn:                 InferQ + Spatial + Sim       (Tofino rejects DNNs)
//
// Random forests are composed of per-tree models upstream of the IR, so
// the harness sees their individual trees.
package validate

import (
	"errors"
	"fmt"

	"repro/internal/ir"
	"repro/internal/p4gen"
	"repro/internal/spatialgen"
	"repro/internal/taurus"
)

// Evaluator is one implementation of the model's classification function.
type Evaluator struct {
	Name     string
	Classify func(x []float64) (int, error)
}

// Result is one evaluator's answer for one input.
type Result struct {
	Evaluator string `json:"evaluator"`
	Class     int    `json:"class"`
	Err       string `json:"error,omitempty"`
}

// Divergence records one input on which the evaluators disagreed.
type Divergence struct {
	Input   []float64 `json:"input"`
	Results []Result  `json:"results"`
}

func (d Divergence) String() string {
	s := fmt.Sprintf("input %v:", d.Input)
	for _, r := range d.Results {
		if r.Err != "" {
			s += fmt.Sprintf(" %s=error(%s)", r.Evaluator, r.Err)
		} else {
			s += fmt.Sprintf(" %s=%d", r.Evaluator, r.Class)
		}
	}
	return s
}

// Report summarizes a differential run.
type Report struct {
	Evaluators  []string     `json:"evaluators"`
	Inputs      int          `json:"inputs"`
	Divergences []Divergence `json:"divergences,omitempty"`
}

// OK reports whether every evaluator agreed on every input.
func (r Report) OK() bool { return len(r.Divergences) == 0 }

func (r Report) String() string {
	if r.OK() {
		return fmt.Sprintf("validate: %d evaluators agree on %d inputs", len(r.Evaluators), r.Inputs)
	}
	return fmt.Sprintf("validate: %d/%d inputs diverge (first: %s)",
		len(r.Divergences), r.Inputs, r.Divergences[0])
}

// Evaluators builds the evaluator set for a model: the IR reference plus
// an interpreter over each artifact the backends would ship for it, plus
// the fabric simulator for DNNs. Generation or parse errors surface
// immediately — an artifact the interpreter cannot parse is as broken as
// one that misclassifies.
func Evaluators(m *ir.Model) ([]Evaluator, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	evals := []Evaluator{{Name: "ir", Classify: m.InferQ}}

	if m.Kind != ir.DNN {
		prog, err := p4gen.Generate(m)
		if err != nil {
			return nil, fmt.Errorf("validate: p4gen: %w", err)
		}
		interp, err := Interpreter(".p4", prog.Source)
		if err != nil {
			return nil, err
		}
		evals = append(evals, interp)
	}

	sprog, err := spatialgen.Generate(m)
	if err != nil {
		return nil, fmt.Errorf("validate: spatialgen: %w", err)
	}
	sinterp, err := Interpreter(".spatial", sprog.Source)
	if err != nil {
		return nil, err
	}
	evals = append(evals, sinterp)

	if m.Kind == ir.DNN {
		sim, err := taurus.NewSim(taurus.DefaultGrid(), m)
		if err != nil {
			return nil, fmt.Errorf("validate: taurus sim: %w", err)
		}
		evals = append(evals, Evaluator{Name: "sim", Classify: func(x []float64) (int, error) {
			c, _, err := sim.Process(x)
			return c, err
		}})
	}
	return evals, nil
}

// ErrNoInterpreter reports an artifact whose code extension no
// interpreter reads.
var ErrNoInterpreter = errors.New("validate: no artifact interpreter")

// Interpreter parses emitted artifact text with the interpreter for its
// code extension — backend.CodeExt's ".p4" or ".spatial" — and returns it
// as an evaluator named after the language. It is the one mapping from an
// artifact to an interpreter: Evaluators, the serving gate and the CLI's
// artifact mode all go through it. Any other extension wraps
// ErrNoInterpreter.
func Interpreter(ext, code string) (Evaluator, error) {
	switch ext {
	case ".p4":
		interp, err := NewP4Interp(code)
		if err != nil {
			return Evaluator{}, fmt.Errorf("validate: p4 artifact unparseable: %w", err)
		}
		return Evaluator{Name: "p4", Classify: interp.Classify}, nil
	case ".spatial":
		interp, err := NewSpatialInterp(code)
		if err != nil {
			return Evaluator{}, fmt.Errorf("validate: spatial artifact unparseable: %w", err)
		}
		return Evaluator{Name: "spatial", Classify: interp.Classify}, nil
	}
	return Evaluator{}, fmt.Errorf("%w for %q", ErrNoInterpreter, ext)
}

// The product's validation traffic: the compile stage, the serving gate
// and the CLI drive the same inputs, so their verdicts are bit-comparable
// and cacheable under the spec hash.
const (
	productSeed    = 0x484f4d554e43 // "HOMUNC"
	productTraffic = 256
)

// ProductTraffic is Traffic at the one seed and size every product
// surface validates with.
func ProductTraffic(m *ir.Model) [][]float64 {
	return Traffic(m, productSeed, productTraffic)
}

// Check runs every evaluator over every input and reports divergences.
// The first evaluator is the reference; an input diverges when any
// evaluator returns a different class (or an error) than the reference.
func Check(evals []Evaluator, inputs [][]float64) Report {
	rep := Report{Inputs: len(inputs)}
	for _, e := range evals {
		rep.Evaluators = append(rep.Evaluators, e.Name)
	}
	for _, x := range inputs {
		if d, diverged := checkOne(evals, x); diverged {
			rep.Divergences = append(rep.Divergences, d)
		}
	}
	return rep
}

func checkOne(evals []Evaluator, x []float64) (Divergence, bool) {
	d := Divergence{Input: x}
	diverged := false
	for i, e := range evals {
		c, err := e.Classify(x)
		r := Result{Evaluator: e.Name, Class: c}
		if err != nil {
			r.Err = err.Error()
			diverged = true
		} else if i > 0 && len(d.Results) > 0 && d.Results[0].Err == "" && c != d.Results[0].Class {
			diverged = true
		}
		d.Results = append(d.Results, r)
	}
	if len(d.Results) > 0 && d.Results[0].Err != "" {
		diverged = true
	}
	return d, diverged
}

// CheckModel generates the evaluator set for m and drives it with
// deterministic traffic derived from seed: n pseudorandom vectors over
// the model's representable range plus the quantization-boundary probes
// from BoundaryInputs.
func CheckModel(m *ir.Model, seed uint64, n int) (Report, error) {
	evals, err := Evaluators(m)
	if err != nil {
		return Report{}, err
	}
	inputs := Traffic(m, seed, n)
	return Check(evals, inputs), nil
}

// Traffic builds the fixed-seed input set for a model: n splitmix64
// vectors spanning the format's representable range, plus boundary
// probes (exact quantization steps, saturation rails, zero) that
// historically flush rounding divergences ordinary random traffic
// misses.
func Traffic(m *ir.Model, seed uint64, n int) [][]float64 {
	rng := splitmix64(seed)
	f := m.Format
	span := float64(int64(1) << uint(f.IntBits))
	inputs := make([][]float64, 0, n+8)
	for i := 0; i < n; i++ {
		x := make([]float64, m.Inputs)
		for j := range x {
			// Uniform over [-span, span) — covers the saturating edges.
			x[j] = (rng.float()*2 - 1) * span
		}
		inputs = append(inputs, x)
	}
	inputs = append(inputs, BoundaryInputs(m)...)
	return inputs
}

// BoundaryInputs returns deterministic probe vectors at the numeric
// edges of the model's format: all-zero, the saturation rails, one LSB
// above/below zero, and (for trees) each split threshold ± half an LSB,
// where round-to-nearest flips sides.
func BoundaryInputs(m *ir.Model) [][]float64 {
	f := m.Format
	lsb := 1 / float64(int64(1)<<uint(f.FracBits))
	rail := float64(int64(1) << uint(f.IntBits))
	uniform := func(v float64) []float64 {
		x := make([]float64, m.Inputs)
		for i := range x {
			x[i] = v
		}
		return x
	}
	probes := [][]float64{
		uniform(0),
		uniform(rail), uniform(-rail),
		uniform(lsb / 2), uniform(-lsb / 2),
		uniform(lsb), uniform(-lsb),
	}
	if m.Kind == ir.DTree && m.Tree != nil {
		var walk func(n *ir.TreeNode)
		walk = func(n *ir.TreeNode) {
			if n == nil || n.Feature < 0 {
				return
			}
			for _, delta := range []float64{-lsb / 2, 0, lsb / 2} {
				x := uniform(0)
				// Undo the normalizer so the probe lands on the
				// threshold in the quantized domain.
				v := n.Threshold + delta
				if len(m.Mean) == m.Inputs {
					v = v*m.Std[n.Feature] + m.Mean[n.Feature]
				}
				x[n.Feature] = v
				probes = append(probes, x)
			}
			walk(n.Left)
			walk(n.Right)
		}
		walk(m.Tree)
	}
	return probes
}

// splitmix64 is the deterministic traffic source — tiny, seedable, and
// identical across platforms (no dependence on math/rand stream
// versioning).
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (s *splitmix64) float() float64 {
	return float64(s.next()>>11) / float64(int64(1)<<53)
}
