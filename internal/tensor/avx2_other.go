//go:build !amd64

package tensor

// Off amd64 the portable loops are the only kernels.

func cpuAVX2() bool { return false }

func cpuFMA() bool { return false }

func mulAddAVX2(d, a, b []float64, rows, k, n, aRow, aK int) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func matMulTAVX2(d, a, b []float64, rows, k, n int) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func adamAVX2(w, m, v, g []float64, s *Adam) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func biasActAVX2(z, b []float64, cols, col int, a Activation) int {
	panic("tensor: no AVX2 kernels on this architecture")
}

func actGradAVX2(delta, out []float64, a Activation) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func dropoutAVX2(x, draws []float64, p, keep float64) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func expAVX2(x []float64) int {
	panic("tensor: no AVX2 kernels on this architecture")
}

func colSumsAVX2(dst, m []float64, rows int) {
	panic("tensor: no AVX2 kernels on this architecture")
}
