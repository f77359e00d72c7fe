//go:build !amd64

package ir

// Off amd64 dotTile is the only tile kernel.

func tileAVX2(w, b, x, y []int32, in int, wb writeback) {
	panic("ir: no AVX2 tile kernel on this architecture")
}
