package ir

// tileAVX2 is layerTile's dense layer, up to the sigmoid, in AVX2
// (tile_amd64.s): y[o*Tile+l] = wb.finish(Σ_i w[o*in+i]·x[i*Tile+l],
// b[o]) for every neuron o < len(b) and lane l. The caller checks that
// w, x and y hold len(b)*in, in*Tile and len(b)*Tile elements.
//
//go:noescape
func tileAVX2(w, b, x, y []int32, in int, wb writeback)

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
