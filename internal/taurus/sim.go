package taurus

import (
	"fmt"

	"repro/internal/fixed"
	"repro/internal/ir"
)

// Sim is a functional pipeline simulator for a DNN mapped onto the
// MapReduce fabric — the repository's stand-in for the Tungsten
// cycle-accurate simulator the paper uses for feasibility verdicts
// (§3.3). The model is compiled into a chain of single-cycle stages
// (vector-MAC map stages, adder-tree reduce stages, activation stages,
// buffer stages) whose arithmetic is the same Q-format fixed point as
// ir.Model.InferQ, so the simulator validates both the timing model (its
// stage count matches Estimate's pipeline depth) and the numerics (its
// classifications match quantized inference bit-for-bit).
type Sim struct {
	grid   Grid
	format fixed.Format
	stages []stage
	// mean/std, when set, are the normalization affine applied in the
	// parser's feature-extraction stage — in the float domain, before
	// quantization, exactly as InferQ applies it.
	mean, std []float64
	// Inputs is the expected feature vector width.
	Inputs int
}

// stage transforms the packet's in-flight value vector in one cycle. The
// vector is carried in wide (int64) words: map-stage partial sums stay at
// full precision through the reduce tree and are rescaled to the Q format
// by a single writeback in the activation stage, matching fixed.DotQ —
// an early Sim saturated each lane's partial separately, which diverged
// from InferQ whenever a lane's partial overflowed but the full sum did
// not (caught by translation validation).
type stage func(v []int64) []int64

// NewSim compiles a DNN model for the grid. Only DNNs have a multi-stage
// fabric pipeline; classical models map to single-kernel stages and are
// already covered by InferQ.
func NewSim(g Grid, m *ir.Model) (*Sim, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if m.Kind != ir.DNN {
		return nil, fmt.Errorf("taurus: simulator supports DNN models, got %v", m.Kind)
	}
	s := &Sim{grid: g, format: m.Format, Inputs: m.Inputs}
	f := m.Format
	v := g.VectorWidth

	// Optional normalization folds into the parser stage (no fabric
	// cycle), mirroring Estimate which charges it nothing. The affine is
	// applied by Process in the float domain before quantization —
	// quantize-then-renormalize loses the input's sub-LSB precision and
	// diverges from InferQ — so the fabric-side stage is a pass-through.
	if len(m.Mean) == m.Inputs {
		s.mean = append([]float64{}, m.Mean...)
		s.std = append([]float64{}, m.Std...)
	}
	s.stages = append(s.stages, func(x []int64) []int64 { return x }) // parse+extract

	for _, l := range m.Layers {
		layer := l // capture
		lanes := ceilDiv(layer.In, v)

		// Quantize weights once at compile time (they live in MUs).
		wq := make([][]int32, layer.Out)
		for o := range layer.W {
			wq[o] = f.QuantizeVec(layer.W[o])
		}
		bq := f.QuantizeVec(layer.B)

		// Map stage: each (neuron, lane) computes an 8-wide partial dot
		// product in one cycle (the intra-lane tree is charged
		// intLog2(min(in, v)) extra cycles below, as pipeline fill). The
		// partials are raw 2n-fraction-bit sums — no per-lane rescale.
		s.stages = append(s.stages, func(x []int64) []int64 {
			partials := make([]int64, layer.Out*lanes)
			for o := 0; o < layer.Out; o++ {
				for lane := 0; lane < lanes; lane++ {
					lo := lane * v
					hi := lo + v
					if hi > layer.In {
						hi = layer.In
					}
					var acc int64
					for j := lo; j < hi; j++ {
						acc += int64(wq[o][j]) * x[j]
					}
					partials[o*lanes+lane] = acc
				}
			}
			return partials
		})
		for range intLog2(min(layer.In, v)) {
			s.stages = append(s.stages, func(x []int64) []int64 { return x }) // fill cycles of the intra-lane tree
		}

		// Cross-lane reduce tree: halve the partials per neuron each
		// cycle, keeping the wide accumulator (int64 addition is exact
		// and associative here, so the tree order matches DotQ's sum).
		reduceLanes := lanes
		for reduceLanes > 1 {
			halved := (reduceLanes + 1) / 2
			from := reduceLanes
			s.stages = append(s.stages, func(x []int64) []int64 {
				out := make([]int64, layer.Out*halved)
				for o := 0; o < layer.Out; o++ {
					for i := 0; i < halved; i++ {
						a := x[o*from+2*i]
						var b int64
						if 2*i+1 < from {
							b = x[o*from+2*i+1]
						}
						out[o*halved+i] = a + b
					}
				}
				return out
			})
			reduceLanes = halved
		}

		// Activation stage: one writeback of the wide accumulator (the
		// DotQ semantics), then saturating bias add and PWL nonlinearity.
		act := layer.Activation
		s.stages = append(s.stages, func(x []int64) []int64 {
			out := make([]int64, layer.Out)
			for o := 0; o < layer.Out; o++ {
				acc := f.Add(f.Writeback(x[o]), bq[o])
				switch act {
				case "relu":
					acc = fixed.ReLUQ(acc)
				case "sigmoid":
					acc = f.SigmoidQ(acc)
				case "tanh":
					one := f.Quantize(1)
					if acc > one {
						acc = one
					}
					if acc < -one {
						acc = -one
					}
				}
				out[o] = int64(acc)
			}
			return out
		})
		// Double-buffer stage between layers.
		s.stages = append(s.stages, func(x []int64) []int64 { return x })
	}
	return s, nil
}

// Stages returns the pipeline depth in fabric cycles.
func (s *Sim) Stages() int {
	return len(s.stages) - 1 // the parse stage is outside the fabric
}

// Process pushes one feature vector through the pipeline, returning the
// arg-max class and the cycle count consumed (the fill latency).
func (s *Sim) Process(x []float64) (class int, cycles int, err error) {
	if len(x) != s.Inputs {
		return 0, 0, fmt.Errorf("taurus: input has %d features, pipeline wants %d", len(x), s.Inputs)
	}
	xn := x
	if len(s.mean) == s.Inputs {
		xn = make([]float64, len(x))
		for i := range x {
			xn[i] = (x[i] - s.mean[i]) / s.std[i]
		}
	}
	vq := s.format.QuantizeVec(xn)
	v := make([]int64, len(vq))
	for i, w := range vq {
		v[i] = int64(w)
	}
	for _, st := range s.stages {
		v = st(v)
	}
	best, bi := v[0], 0
	for i, val := range v {
		if val > best {
			best, bi = val, i
		}
	}
	return bi, s.Stages(), nil
}
