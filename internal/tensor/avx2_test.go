package tensor

// The AVX2 kernels against the portable loops, bit for bit: every dense
// product and the Adam step, on ragged shapes around the four-lane
// chunk, the four-deep group, the four-row block and blockK, with
// operands spread over twelve decades and ±Inf, NaN, ±0 and all-zero
// groups among them, so that the zero-skip semantics are pinned too.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// forEachKernel calls f once per kernel set this host can run — the
// portable loops, and the AVX2 kernels where the CPU has AVX2 — with the
// products and Adam.Step dispatching to it, and restores the dispatch
// afterwards.
func forEachKernel(f func(kernel string)) {
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	for _, avx2 := range []bool{false, true} {
		if avx2 && !cpuAVX2() {
			continue
		}
		useAVX2 = avx2
		f(kernelName())
	}
}

// kernelName names the kernel set the products dispatch to.
func kernelName() string {
	if useAVX2 {
		return "avx2"
	}
	return "go"
}

// onBothKernels returns f's result on the portable loops and on the
// AVX2 kernels; it skips t where the CPU has no AVX2.
func onBothKernels(t *testing.T, f func() []float64) (portable, avx2 []float64) {
	t.Helper()
	if !cpuAVX2() {
		t.Skip("the CPU has no AVX2: the portable loops are the only kernels")
	}
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	useAVX2 = false
	portable = f()
	useAVX2 = true
	return portable, f()
}

// wildValue draws an operand: mostly normal values scaled over twelve
// decades, with ±0, ±Inf and NaN among them.
func wildValue(rng *rand.Rand) float64 {
	switch r := rng.Intn(100); {
	case r < 8:
		return 0
	case r < 12:
		return math.Copysign(0, -1)
	case r < 14:
		return math.Inf(1)
	case r < 16:
		return math.Inf(-1)
	case r < 18:
		return math.NaN()
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
}

// wildMat is a rows×cols matrix of wildValue draws. With special false
// it holds finite values only, so that no NaN hides a sum's order.
func wildMat(rng *rand.Rand, rows, cols int, special bool) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		if special {
			m.Data[i] = wildValue(rng)
		} else {
			m.Data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
	}
	return m
}

// zeroGroups sets, for about one group in three, the four consecutive
// depths p..p+3 (p a multiple of 4) of one output row to ±0: the
// elements at first + i*rowStride + p*depthStride.
func zeroGroups(rng *rand.Rand, m *Matrix, rows, depth, rowStride, depthStride int) {
	for i := 0; i < rows; i++ {
		for p := 0; p+3 < depth; p += 4 {
			if rng.Intn(3) != 0 {
				continue
			}
			for q := p; q < p+4; q++ {
				m.Data[i*rowStride+q*depthStride] = math.Copysign(0, float64(rng.Intn(2))-0.5)
			}
		}
	}
}

// sameBits fails t on the first element where got and want differ in
// any bit, except that any NaN matches any NaN: where two NaNs meet, x86
// returns the first operand's payload, and the Go compiler does not keep
// a commutative operation's operands in source order, so the portable
// loops' payloads are the compiler's choice.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d elements, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: elem %d = %v (%#016x), portable %v (%#016x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// kernelDepths are the depths k of the bit-identity sweeps: every depth
// to 33, and the three around blockK (and MatMulT's panel).
func kernelDepths() []int {
	var ks []int
	for k := 1; k <= 33; k++ {
		ks = append(ks, k)
	}
	return append(ks, blockK-1, blockK, blockK+1)
}

// sweepShapes calls f for every depth of kernelDepths and width 1-33,
// with the row count cycling through 1-70, and for rows 1-70 at a few
// (k, n) pairs, among them widths past mulAddAVX2's 32-column block,
// the special values on in every other shape.
func sweepShapes(f func(rows, k, n int, special bool)) {
	shape := 0
	for _, k := range kernelDepths() {
		for n := 1; n <= 33; n++ {
			f(1+shape%70, k, n, shape%2 == 0)
			shape++
		}
	}
	for rows := 1; rows <= 70; rows++ {
		for _, kn := range [][2]int{{7, 6}, {12, 13}, {24, 24}, {129, 5}, {9, 36}, {5, 71}} {
			f(rows, kn[0], kn[1], rows%2 == 0)
		}
	}
}

func TestAVX2MatMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	sweepShapes(func(rows, k, n int, special bool) {
		a, b := wildMat(rng, rows, k, special), wildMat(rng, k, n, special)
		zeroGroups(rng, a, rows, k, k, 1)
		want, got := onBothKernels(t, func() []float64 { return MatMul(New(rows, n), a, b).Data })
		sameBits(t, fmt.Sprintf("MatMul %dx%d·%dx%d special=%v", rows, k, k, n, special), got, want)
	})
}

func TestAVX2TMatMulBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	// TMatMul's depth is the sample count, a.Rows; its output rows are
	// a's columns.
	sweepShapes(func(cols, samples, n int, special bool) {
		a, b := wildMat(rng, samples, cols, special), wildMat(rng, samples, n, special)
		zeroGroups(rng, a, cols, samples, 1, cols)
		want, got := onBothKernels(t, func() []float64 { return TMatMul(New(cols, n), a, b).Data })
		sameBits(t, fmt.Sprintf("TMatMul (%dx%d)ᵀ·%dx%d special=%v", samples, cols, samples, n, special), got, want)
	})
}

func TestAVX2MatMulTBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sweepShapes(func(rows, k, n int, special bool) {
		a, b := wildMat(rng, rows, k, special), wildMat(rng, n, k, special)
		zeroGroups(rng, a, rows, k, k, 1)
		want, got := onBothKernels(t, func() []float64 { return MatMulT(New(rows, n), a, b).Data })
		sameBits(t, fmt.Sprintf("MatMulT %dx%d·(%dx%d)ᵀ special=%v", rows, k, n, k, special), got, want)
	})
	// Past the panel's depth the portable loop runs; it must still agree.
	a, b := wildMat(rng, 9, maxPanelK+3, false), wildMat(rng, 6, maxPanelK+3, false)
	want, got := onBothKernels(t, func() []float64 { return MatMulT(New(9, 6), a, b).Data })
	sameBits(t, "MatMulT past the panel", got, want)
}

func TestAVX2AdamStepBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for n := 0; n <= 33; n++ {
		for step := 1; step <= 40; step += 13 {
			special := step%2 == 1
			row := func() []float64 { return wildMat(rng, 1, n, special).Data }
			w, m, v, g := row(), row(), row(), row()
			for i := range v {
				v[i] = math.Abs(v[i]) // a second moment is never negative
			}
			s := Adam{
				Beta1: 0.9, Beta2: 0.999, OneMinusBeta1: 1 - 0.9, OneMinusBeta2: 1 - 0.999,
				LR:  math.Pow(10, float64(rng.Intn(5)-4)),
				BC1: 1 - math.Pow(0.9, float64(step)), BC2: 1 - math.Pow(0.999, float64(step)),
				Eps: 1e-8,
			}
			run := func() []float64 {
				w, m, v := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
				s.Step(w, m, v, g)
				return append(append(w, m...), v...)
			}
			want, got := onBothKernels(t, run)
			sameBits(t, fmt.Sprintf("Adam.Step n=%d step=%d special=%v (w, m, v)", n, step, special), got, want)
		}
	}
}

// TestAdamStepMatchesFormula holds Adam.Step, on every kernel, to the
// update as the trainer wrote it before the step moved here, with its
// constants folded by the compiler.
func TestAdamStepMatchesFormula(t *testing.T) {
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	rng := rand.New(rand.NewSource(55))
	forEachKernel(func(kernel string) {
		for n := 0; n <= 13; n++ {
			row := func() []float64 { return wildMat(rng, 1, n, false).Data }
			w, m, v, g := row(), row(), row(), row()
			for i := range v {
				v[i] = math.Abs(v[i])
			}
			const lr, step = 0.01, 3
			bc1, bc2 := 1-math.Pow(beta1, step), 1-math.Pow(beta2, step)
			wantW, wantM, wantV := append([]float64(nil), w...), append([]float64(nil), m...), append([]float64(nil), v...)
			for i, gv := range g {
				wantM[i] = beta1*wantM[i] + (1-beta1)*gv
				wantV[i] = beta2*wantV[i] + (1-beta2)*gv*gv
				mHat := wantM[i] / bc1
				vHat := wantV[i] / bc2
				wantW[i] -= lr * mHat / (math.Sqrt(vHat) + eps)
			}
			s := Adam{Beta1: beta1, Beta2: beta2, OneMinusBeta1: 1 - beta1, OneMinusBeta2: 1 - beta2, LR: lr, BC1: bc1, BC2: bc2, Eps: eps}
			s.Step(w, m, v, g)
			what := fmt.Sprintf("%s n=%d", kernel, n)
			sameBits(t, what+" w", w, wantW)
			sameBits(t, what+" m", m, wantM)
			sameBits(t, what+" v", v, wantV)
		}
	})
}
