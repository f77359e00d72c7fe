package ir

// The edge table of the dense tile kernels: tileAVX2 against the
// portable dotTile + writeback.finish, tile for tile, on hand-built
// layers that reach every corner of the writeback — wrapping int64
// accumulators, negative accumulators whose shift must floor, shifted
// values around each saturation bound, extreme biases, every activation
// and fraction width, and every small shape.

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fixed"
	"repro/internal/tensor"
)

// edgeAccumulators are wide sums around every bound of f's writeback:
// shifted values one below, at and one above each saturation bound (and
// around 0 and ±1 in the format), each with the low bits the shift drops
// set to 0, 1, half and all.
func edgeAccumulators(f fixed.Format, wb writeback) []int64 {
	one := int64(f.Quantize(1))
	var shifted []int64
	for _, s := range []int64{int64(wb.sat.lo), int64(wb.sat.hi), 0, one, -one, math.MinInt32, math.MaxInt32} {
		shifted = append(shifted, s-1, s, s+1)
	}
	frac := uint(f.FracBits)
	lows := []int64{0, 1}
	if frac > 0 {
		lows = append(lows, 1<<(frac-1), 1<<frac-1)
	}
	var accs []int64
	for _, s := range shifted {
		for _, low := range lows {
			accs = append(accs, s<<frac+low)
		}
	}
	return accs
}

// edgeBiases are the biases every edge accumulator meets: zero, ±1, the
// format's bounds, ±(2³¹−1) and −2³¹.
func edgeBiases(wb writeback) []int32 {
	return []int32{0, 1, -1, wb.sat.lo, wb.sat.hi, math.MaxInt32, -math.MaxInt32, math.MinInt32}
}

// extremeInt32 is a full-range word, an extreme one a quarter of the
// time, so that sums of in ≥ 2 products often wrap int64.
func extremeInt32(rng *rand.Rand) int32 {
	switch rng.Intn(8) {
	case 0:
		return math.MinInt32
	case 1:
		return math.MaxInt32
	}
	return int32(rng.Uint32())
}

// compareTileKernels runs l over the tile x on both kernels and fails on
// the first output they disagree on.
func compareTileKernels(t *testing.T, p *Predictor, l *flatLayer, x []int32, what string) {
	t.Helper()
	run := func(avx2 bool) []int32 {
		useAVX2 = avx2
		y := make([]int32, l.out*Tile)
		p.layerTile(l, x, y)
		return y
	}
	want, got := run(false), run(true)
	for i := range want {
		if got[i] != want[i] {
			o, lane := i/Tile, i%Tile
			a := [Tile]int64{}
			a[0], a[1], a[2], a[3], a[4], a[5], a[6], a[7] = dotTile(l.w[o*l.in:(o+1)*l.in], x)
			t.Fatalf("%s, format %v, act %d, in=%d out=%d: neuron %d lane %d (acc %d, bias %d): avx2 %d, go %d",
				what, p.f, l.act, l.in, l.out, o, lane, a[lane], l.b[o], got[i], want[i])
		}
	}
}

func TestTileKernelEdges(t *testing.T) {
	if !tensor.HasAVX2() {
		t.Skip("the CPU has no AVX2: dotTile is the only tile kernel")
	}
	defer func(saved bool) { useAVX2 = saved }(useAVX2)
	rng := rand.New(rand.NewSource(48))
	for _, frac := range []int{0, 8, 12, 16} {
		// An 8-bit-integer format and the widest, whose bounds are
		// int32's.
		for _, f := range []fixed.Format{{IntBits: 7, FracBits: frac}, {IntBits: 31 - frac, FracBits: frac}} {
			p := &Predictor{f: f}
			for _, act := range []actKind{actNone, actReLU, actSigmoid, actTanh} {
				wb := newWriteback(f, act)

				// Every shape, with full-range weights and activations.
				for in := 1; in <= 33; in++ {
					for out := 1; out <= 9; out++ {
						l := flatLayer{in: in, out: out, w: make([]int32, in*out), b: make([]int32, out), act: act, wb: wb}
						for i := range l.w {
							l.w[i] = extremeInt32(rng)
						}
						for o := range l.b {
							l.b[o] = extremeInt32(rng)
						}
						x := make([]int32, in*Tile)
						for i := range x {
							x[i] = extremeInt32(rng)
						}
						compareTileKernels(t, p, &l, x, "random layer")
					}
				}

				// Sums that wrap: in products (−2³¹)² = 2⁶² sum to
				// in·2⁶² mod 2⁶⁴; lane l takes 2³¹−1 for its first l
				// inputs instead.
				for in := 1; in <= 33; in++ {
					l := flatLayer{in: in, out: 1, w: make([]int32, in), b: []int32{0}, act: act, wb: wb}
					for i := range l.w {
						l.w[i] = math.MinInt32
					}
					x := make([]int32, in*Tile)
					for i := range x {
						x[i] = math.MinInt32
						if i%Tile > i/Tile {
							x[i] = math.MaxInt32
						}
					}
					compareTileKernels(t, p, &l, x, "wrapping sums")
				}

				// Each edge accumulator against each edge bias:
				// acc = x0 + x1·2³⁰ with weights (1, 2³⁰), padded with
				// zero weights up to in.
				accs, biases := edgeAccumulators(f, wb), edgeBiases(wb)
				for start := 0; start < len(accs); start += Tile {
					in := 2 + start/Tile%32
					l := flatLayer{in: in, out: len(biases), w: make([]int32, in*len(biases)), b: biases, act: act, wb: wb}
					for o := range biases {
						l.w[o*in], l.w[o*in+1] = 1, 1<<30
					}
					x := make([]int32, in*Tile)
					for i := range x {
						x[i] = extremeInt32(rng)
					}
					for lane := 0; lane < Tile; lane++ {
						acc := accs[(start+lane)%len(accs)]
						x[lane], x[Tile+lane] = int32(acc&(1<<30-1)), int32(acc>>30)
					}
					compareTileKernels(t, p, &l, x, "edge accumulators")
				}
			}
		}
	}
}
