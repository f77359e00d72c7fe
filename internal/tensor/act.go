package tensor

import "fmt"

// Activation is a hidden layer's elementwise nonlinearity.
type Activation int

// The activations BiasAct and ActivationGrad take.
const (
	ActReLU Activation = iota
	ActSigmoid
	ActTanh
)

// biasOnly makes biasAct add the bias and apply nothing: AddBias.
const biasOnly Activation = -1

// String names the activation for code generation and reports.
func (a Activation) String() string {
	switch a {
	case ActReLU:
		return "relu"
	case ActSigmoid:
		return "sigmoid"
	case ActTanh:
		return "tanh"
	default:
		return fmt.Sprintf("Activation(%d)", int(a))
	}
}

// BiasAct adds the bias vector b to every row of m and applies a to each
// element, in place: a hidden layer's pre-activations to its outputs in
// one pass.
func BiasAct(m *Matrix, b []float64, a Activation) {
	if len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: BiasAct len %d, want %d", len(b), m.Cols))
	}
	biasAct(m.Data, b, a)
}

// AddBias adds the bias vector b to every row of m in place.
func AddBias(m *Matrix, b []float64) {
	if len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBias len %d, want %d", len(b), m.Cols))
	}
	biasAct(m.Data, b, biasOnly)
}

// biasAct is BiasAct on the rows of z, each len(b) wide. The AVX2 kernel
// runs z flat, four elements per group whatever the row width, and stops
// at a group where a lane's exponential would leave exp's fast path
// (NaN, ±Inf, overflow, a subnormal or zero result); the Go reference
// finishes that group and the kernel goes on after it. A row narrower
// than a group is handed to the kernel as the bias extended to cols+3
// elements, b[k mod cols], so that each group's biases are four
// consecutive elements.
func biasAct(z, b []float64, a Activation) {
	cols := len(b)
	if len(z) == 0 || cols == 0 {
		return
	}
	if !useAVX2 || !hasFMA {
		for r := 0; r < len(z); r += cols {
			for j, bv := range b {
				z[r+j] = activate(z[r+j]+bv, a)
			}
		}
		return
	}
	src := b
	var ext [6]float64
	if cols < 4 {
		src = ext[:cols+3]
		for k := range src {
			src[k] = b[k%cols]
		}
	}
	for i := 0; i < len(z); {
		i += biasActAVX2(z[i:], src, cols, i%cols, a)
		for end := min(i+4, len(z)); i < end; i++ {
			z[i] = activate(z[i]+b[i%cols], a)
		}
	}
}

// activate is the Go reference of an activation (or of none).
func activate(v float64, a Activation) float64 {
	switch a {
	case ActReLU:
		if v < 0 {
			return 0
		}
	case ActSigmoid:
		return 1 / (1 + Exp(-v))
	case ActTanh:
		return Tanh(v)
	}
	return v
}

// ActivationGrad scales delta elementwise by d(act)/dz, derived from the
// activated outputs out (ReLU: 0 or 1, sigmoid: o(1-o), tanh: 1-o²).
func ActivationGrad(delta, out []float64, a Activation) {
	if len(delta) != len(out) {
		panic(fmt.Sprintf("tensor: ActivationGrad lengths %d, %d", len(delta), len(out)))
	}
	if useAVX2 {
		actGradAVX2(delta, out, a)
		return
	}
	switch a {
	case ActReLU:
		for i, o := range out {
			if o <= 0 {
				delta[i] = 0
			}
		}
	case ActSigmoid:
		for i, o := range out {
			delta[i] *= o * (1 - o)
		}
	case ActTanh:
		for i, o := range out {
			delta[i] *= 1 - o*o
		}
	}
}

// Dropout applies inverted dropout to x in place: x[i] becomes 0 where
// draws[i], a uniform draw in [0, 1), is below p, and x[i]/(1-p)
// otherwise.
func Dropout(x, draws []float64, p float64) {
	if len(x) != len(draws) {
		panic(fmt.Sprintf("tensor: Dropout lengths %d, %d", len(x), len(draws)))
	}
	keep := 1 - p
	if useAVX2 {
		dropoutAVX2(x, draws, p, keep)
		return
	}
	for i, u := range draws {
		if u < p {
			x[i] = 0
		} else {
			x[i] /= keep
		}
	}
}

// SoftmaxRows replaces each row of m by its softmax: exp(v − max) over
// the row, each divided by their sum, added in ascending column order.
func SoftmaxRows(m *Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		top := row[0]
		for _, v := range row {
			if v > top {
				top = v
			}
		}
		for j, v := range row {
			row[j] = v - top
		}
	}
	expInPlace(m.Data)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var sum float64
		for _, e := range row {
			sum += e
		}
		for j := range row {
			row[j] /= sum
		}
	}
}

// expInPlace replaces every element of x by its exponential. The AVX2
// kernel stops at a group of four where a lane would leave exp's fast
// path; the Go reference finishes that group.
func expInPlace(x []float64) {
	if !useAVX2 || !hasFMA {
		for i, v := range x {
			x[i] = Exp(v)
		}
		return
	}
	for i := 0; i < len(x); {
		i += expAVX2(x[i:])
		for end := min(i+4, len(x)); i < end; i++ {
			x[i] = Exp(x[i])
		}
	}
}
