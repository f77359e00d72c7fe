//go:build !amd64

package tensor

// Off amd64 the portable loops are the only kernels.

func cpuAVX2() bool { return false }

func mulAddAVX2(d, a, b []float64, rows, k, n, aRow, aK int) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func matMulTAVX2(d, a, b []float64, rows, k, n int) {
	panic("tensor: no AVX2 kernels on this architecture")
}

func adamAVX2(w, m, v, g []float64, s *Adam) {
	panic("tensor: no AVX2 kernels on this architecture")
}
