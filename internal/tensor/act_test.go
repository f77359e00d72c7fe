package tensor

// The elementwise AVX2 kernels against the Go reference, bit for bit:
// bias and activation, their gradients, dropout, the softmax and its
// exponential and ColSums, on every length around the four-lane group,
// with a lane that leaves exp's fast path at each position of a group.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

var activations = []Activation{ActReLU, ActSigmoid, ActTanh}

// notActivations are values of Activation that name none: the Go
// reference applies nothing and scales no gradient, and so must the
// kernels.
var notActivations = []Activation{biasOnly, ActTanh + 1, 7, -5}

// negZeros is n copies of −0, the bias that leaves every input as it is
// (x + −0 is x, and −0 + −0 is −0).
func negZeros(n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = math.Copysign(0, -1)
	}
	return b
}

// expLeavers are exponential arguments whose lane the kernels hand to
// the Go reference: NaN, ±Inf, past the overflow threshold, the last
// inputs Exp scales by 2^1024, subnormal results and underflow to 0.
var expLeavers = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), 1e300, -1e300, 710, 709.7, expOverflow,
	-708.5, -720, -745.1, -746, -1e10,
}

// TestAVX2ActivationsMatchReference runs Exp, Tanh and the sigmoid over
// the dense sweep through the kernels, each input one element of a
// 7-wide matrix (so every group position and the 3-lane tail see every
// kind of input), and holds every element to the scalar reference.
func TestAVX2ActivationsMatchReference(t *testing.T) {
	xs := randomInputs(rand.New(rand.NewSource(56)), edgeInputs(), 300_000)
	xs = append(xs, expLeavers...)
	const cols = 7
	xs = xs[:len(xs)/cols*cols]
	forEachKernel(func(kernel string) {
		got := append([]float64(nil), xs...)
		expInPlace(got)
		for i, x := range xs {
			if want := Exp(x); !sameFloat(got[i], want) {
				t.Fatalf("%s: exp(%v [%#016x]) = %#016x, Exp %#016x", kernel, x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
			}
		}
		for _, a := range activations {
			m := FromSlice(len(xs)/cols, cols, append([]float64(nil), xs...))
			BiasAct(m, negZeros(cols), a)
			for i, x := range xs {
				if want := activate(x, a); !sameFloat(m.Data[i], want) {
					t.Fatalf("%s %v(%v [%#016x]) = %#016x, reference %#016x", kernel, a, x, math.Float64bits(x), math.Float64bits(m.Data[i]), math.Float64bits(want))
				}
			}
		}
	})
}

// normalRow is n values an activation keeps on its fast path.
func normalRow(rng *rand.Rand, n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(4)-2))
	}
	return r
}

// TestAVX2FallbackLanes puts each exponential argument that leaves the
// fast path at every position of a row, for every row width 1-9 (every
// group position and every tail), and requires the bits of the Go
// reference from BiasAct's sigmoid, the softmax and the exponential.
func TestAVX2FallbackLanes(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	for cols := 1; cols <= 9; cols++ {
		for pos := 0; pos < 3*cols; pos++ {
			for _, leaver := range expLeavers {
				data, b := normalRow(rng, 3*cols), normalRow(rng, cols)
				what := fmt.Sprintf("cols=%d pos=%d exp(%v)", cols, pos, leaver)

				// The sigmoid exponentiates −(z + b).
				sig := append([]float64(nil), data...)
				sig[pos] = -leaver - b[pos%cols]
				want, got := onBothKernels(t, func() []float64 {
					m := FromSlice(3, cols, append([]float64(nil), sig...))
					BiasAct(m, b, ActSigmoid)
					return m.Data
				})
				sameBits(t, what+" sigmoid", got, want)

				// The softmax exponentiates v − max; 0 is the row's max.
				soft := append([]float64(nil), data...)
				for i := range soft {
					soft[i] = -math.Abs(soft[i])
				}
				soft[pos] = leaver
				want, got = onBothKernels(t, func() []float64 {
					m := FromSlice(3, cols, append([]float64(nil), soft...))
					SoftmaxRows(m)
					return m.Data
				})
				sameBits(t, what+" softmax", got, want)

				flat := append([]float64(nil), data...)
				flat[pos] = leaver
				want, got = onBothKernels(t, func() []float64 {
					x := append([]float64(nil), flat...)
					expInPlace(x)
					return x
				})
				sameBits(t, what+" exp", got, want)
			}
		}
	}
}

// spread is a rows×cols matrix for the activations: values from 10⁻³
// to 10³ of both signs, with ±0, ±Inf, NaN and exp's leavers among them
// in every other shape.
func spread(rng *rand.Rand, rows, cols int, special bool) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
		if special && rng.Intn(10) == 0 {
			if rng.Intn(2) == 0 {
				m.Data[i] = wildValue(rng)
			} else {
				m.Data[i] = expLeavers[rng.Intn(len(expLeavers))]
			}
		}
	}
	return m
}

func TestAVX2BiasActBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	for _, a := range append(activations, notActivations...) {
		for rows := 1; rows <= 5; rows++ {
			for cols := 0; cols <= 37; cols++ {
				special := (rows+cols)%2 == 0
				z, b := spread(rng, rows, cols, special), spread(rng, 1, cols, special).Data
				want, got := onBothKernels(t, func() []float64 {
					m := z.Clone()
					if a == biasOnly {
						AddBias(m, b)
					} else {
						BiasAct(m, b, a)
					}
					return m.Data
				})
				sameBits(t, fmt.Sprintf("%v %dx%d special=%v", a, rows, cols, special), got, want)
			}
		}
	}
}

func TestAVX2ActivationGradBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for _, a := range append(activations, notActivations...) {
		for n := 0; n <= 33; n++ {
			special := n%2 == 0
			delta, out := spread(rng, 1, n, special).Data, spread(rng, 1, n, special).Data
			for i := range out {
				if rng.Intn(6) == 0 {
					out[i] = math.Copysign(0, float64(rng.Intn(2))-0.5)
				}
			}
			want, got := onBothKernels(t, func() []float64 {
				d := append([]float64(nil), delta...)
				ActivationGrad(d, out, a)
				return d
			})
			sameBits(t, fmt.Sprintf("%v n=%d special=%v", a, n, special), got, want)
		}
	}
}

func TestAVX2DropoutBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, p := range []float64{0.1, 0.2, 0.5, 0.9} {
		for n := 0; n <= 33; n++ {
			x, draws := spread(rng, 1, n, n%2 == 0).Data, make([]float64, n)
			for i := range draws {
				draws[i] = rng.Float64()
				if rng.Intn(8) == 0 {
					draws[i] = p // survives: the test is draws < p
				}
			}
			want, got := onBothKernels(t, func() []float64 {
				y := append([]float64(nil), x...)
				Dropout(y, draws, p)
				return y
			})
			sameBits(t, fmt.Sprintf("p=%v n=%d", p, n), got, want)
		}
	}
}

func TestAVX2SoftmaxRowsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for rows := 1; rows <= 6; rows++ {
		for cols := 1; cols <= 13; cols++ {
			special := (rows+cols)%2 == 0
			z := spread(rng, rows, cols, special)
			if rows%3 == 0 {
				// A spread past 745 sends some exp(v − max) below the
				// subnormals, onto the Go reference.
				for i := range z.Data {
					z.Data[i] *= 800
				}
			}
			want, got := onBothKernels(t, func() []float64 {
				m := z.Clone()
				SoftmaxRows(m)
				return m.Data
			})
			sameBits(t, fmt.Sprintf("%dx%d special=%v", rows, cols, special), got, want)
		}
	}
}

func TestAVX2ColSumsBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	for rows := 0; rows <= 70; rows += 1 + rows/8 {
		for cols := 0; cols <= 71; cols += 1 + cols/16 {
			special := (rows+cols)%2 == 0
			m := wildMat(rng, rows, cols, special)
			want, got := onBothKernels(t, func() []float64 {
				dst := wildMat(rng, 1, cols, false).Data // ColSums overwrites it
				ColSums(dst, m)
				return dst
			})
			sameBits(t, fmt.Sprintf("ColSums %dx%d special=%v", rows, cols, special), got, want)
		}
	}
}

// TestElementwiseMatchFormulas holds the Go reference, on every kernel,
// to the loops the trainer ran before they moved here: x + b then the
// activation by math.Exp and math.Tanh where those fuse, dropout and
// softmax.
func TestElementwiseMatchFormulas(t *testing.T) {
	if !mathExpFused() {
		t.Skip("math.Exp takes its non-FMA sequence here")
	}
	rng := rand.New(rand.NewSource(64))
	forEachKernel(func(kernel string) {
		const rows, cols = 5, 7
		z, b := spread(rng, rows, cols, true), spread(rng, 1, cols, true).Data
		for _, a := range activations {
			got := z.Clone()
			BiasAct(got, b, a)
			for i, v := range z.Data {
				v += b[i%cols]
				switch a {
				case ActReLU:
					if v < 0 {
						v = 0
					}
				case ActSigmoid:
					v = 1 / (1 + math.Exp(-v))
				case ActTanh:
					v = math.Tanh(v)
				}
				if !sameFloat(got.Data[i], v) {
					t.Fatalf("%s %v elem %d = %v, formula %v", kernel, a, i, got.Data[i], v)
				}
			}
		}
		got := z.Clone()
		SoftmaxRows(got)
		for i := 0; i < rows; i++ {
			row := z.Row(i)
			max := row[0]
			for _, v := range row {
				if v > max {
					max = v
				}
			}
			var sum float64
			e := make([]float64, cols)
			for j, v := range row {
				e[j] = math.Exp(v - max)
				sum += e[j]
			}
			for j := range e {
				if want := e[j] / sum; !sameFloat(got.At(i, j), want) {
					t.Fatalf("%s softmax [%d,%d] = %v, formula %v", kernel, i, j, got.At(i, j), want)
				}
			}
		}
		x, u := z.Data, normalRow(rng, len(z.Data))
		const p = 0.3
		drop := append([]float64(nil), x...)
		Dropout(drop, u, p)
		keep := 1 - p
		for i, v := range x {
			wantDrop := v / keep
			if u[i] < p {
				wantDrop = 0
			}
			if !sameFloat(drop[i], wantDrop) {
				t.Fatalf("%s elem %d: dropout %v, formula %v", kernel, i, drop[i], wantDrop)
			}
		}
	})
}
