package tensor

// mulAddAVX2 is the body of matMulRows and tMatMulCols in AVX2
// (avx2_amd64.s), four output columns per ymm: for each of rows output
// rows i and column j < n it adds to d[i*n+j], four depths at a time and
// then one at a time, exactly as the portable loops do,
//
//	d[i*n+j] += a[i*aRow+p*aK]·b[p*n+j] + … (p ascending, k depths)
//
// skipping a group of four depths, or a single one, whose a values are
// all ±0. The caller checks that every index it implies is in bounds.
//
//go:noescape
func mulAddAVX2(d, a, b []float64, rows, k, n, aRow, aK int)

// matMulTAVX2 is matMulTRows in AVX2: d[i*n+j] = Σ_p a[i*k+p]·b[j*k+p]
// for rows rows and n columns, every sum from +0 in ascending p. It
// transposes four rows of b at a time into a panel on its own stack, so
// k must be in [1, maxPanelK].
//
//go:noescape
func matMulTAVX2(d, a, b []float64, rows, k, n int)

// adamAVX2 is Adam.Step in AVX2, four parameters per ymm, in the
// portable loop's association.
//
//go:noescape
func adamAVX2(w, m, v, g []float64, s *Adam)

// biasActAVX2 is biasAct's kernel: z is rows of cols columns from
// column col of its first row on, and b the bias, or for cols < 4 the
// bias extended to cols+3 elements. Four elements per ymm, it adds each
// element's bias and applies a (nothing where a is biasOnly or names no
// activation), and returns the number of elements done: len(z), or the
// start of the first group of four where a lane's exponential would
// leave exp's fast path, which it leaves untouched.
//
//go:noescape
func biasActAVX2(z, b []float64, cols, col int, a Activation) int

// actGradAVX2 is ActivationGrad in AVX2, four elements per ymm.
//
//go:noescape
func actGradAVX2(delta, out []float64, a Activation)

// dropoutAVX2 is Dropout in AVX2, four elements per ymm, keep = 1-p.
//
//go:noescape
func dropoutAVX2(x, draws []float64, p, keep float64)

// expAVX2 replaces x[i] by Exp(x[i]), four elements per ymm, and returns
// the number done: len(x), or the start of the first group of four where
// a lane would leave exp's fast path, which it leaves untouched.
//
//go:noescape
func expAVX2(x []float64) int

// colSumsAVX2 is ColSums in AVX2 over rows rows of len(dst) columns,
// four columns per ymm.
//
//go:noescape
func colSumsAVX2(dst, m []float64, rows int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// cpuAVX2 reports whether the CPU has AVX2 and the OS saves the YMM
// registers on a context switch.
func cpuAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&(osxsave|avx) != osxsave|avx {
		return false
	}
	// XCR0 bits 1 and 2: the OS saves the XMM and the YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&(1<<5) != 0
}

// cpuFMA reports whether the CPU has AVX2 and FMA, and the OS saves the
// YMM registers.
func cpuFMA() bool {
	const fma = 1 << 12
	_, _, ecx, _ := cpuid(1, 0)
	return ecx&fma != 0 && cpuAVX2()
}
