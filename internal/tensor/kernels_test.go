package tensor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
)

// Naive reference kernels: the textbook triple loops the blocked/parallel
// implementations must reproduce to within 1e-12.

func refMatMul(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func refMatMulT(a, b *Matrix) *Matrix {
	dst := New(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func refTMatMul(a, b *Matrix) *Matrix {
	dst := New(a.Cols, b.Cols)
	for i := 0; i < a.Cols; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Rows; k++ {
				s += a.At(k, i) * b.At(k, j)
			}
			dst.Set(i, j, s)
		}
	}
	return dst
}

func randMat(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
		if rng.Intn(8) == 0 { // exercise the zero-skip fast path
			m.Data[i] = 0
		}
	}
	return m
}

func assertClose(t *testing.T, name string, got, want *Matrix, m, k, n int) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s %dx%dx%d: shape %dx%d, want %dx%d", name, m, k, n, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		diff := math.Abs(got.Data[i] - want.Data[i])
		scale := math.Max(1, math.Abs(want.Data[i]))
		if diff/scale > 1e-12 {
			t.Fatalf("%s %dx%dx%d: elem %d = %v, want %v (|Δ|=%g)", name, m, k, n, i, got.Data[i], want.Data[i], diff)
		}
	}
}

// kernelShapes mixes randomized shapes with the degenerate edges (1×N,
// N×1, single-element) and shapes straddling the blockK boundary.
func kernelShapes(rng *rand.Rand) [][3]int {
	shapes := [][3]int{
		{1, 1, 1},
		{1, 7, 1},
		{1, 13, 9}, // 1×N row vector
		{9, 13, 1}, // N×1 column output
		{5, 1, 5},  // inner dim 1
		{3, blockK - 1, 4},
		{3, blockK, 4},
		{3, blockK + 1, 4},
		{2, 3*blockK + 17, 5},
	}
	for i := 0; i < 12; i++ {
		shapes = append(shapes, [3]int{1 + rng.Intn(40), 1 + rng.Intn(40), 1 + rng.Intn(40)})
	}
	// A couple of shapes big enough to cross the parallel-dispatch
	// threshold even without forcing extra workers.
	shapes = append(shapes, [3]int{96, 64, 48}, [3]int{200, 33, 40})
	return shapes
}

func TestBlockedKernelsMatchReference(t *testing.T) {
	for _, workers := range []int{1, 4} {
		old := parallel.Workers()
		parallel.SetWorkers(workers)
		rng := rand.New(rand.NewSource(42))
		for _, s := range kernelShapes(rng) {
			m, k, n := s[0], s[1], s[2]

			a, b := randMat(rng, m, k), randMat(rng, k, n)
			assertClose(t, "MatMul", MatMul(New(m, n), a, b), refMatMul(a, b), m, k, n)

			bt := randMat(rng, n, k) // b for a·bᵀ shares the inner dim
			assertClose(t, "MatMulT", MatMulT(New(m, n), a, bt), refMatMulT(a, bt), m, k, n)

			at := randMat(rng, k, m)
			assertClose(t, "TMatMul", TMatMul(New(m, n), at, b), refTMatMul(at, b), m, k, n)
		}
		parallel.SetWorkers(old)
	}
}

// TestKernelsPoolSizeInvariant pins the stronger property the BO
// determinism guarantee rests on: the kernels are not merely within
// tolerance of the reference but bit-identical across pool sizes.
func TestKernelsPoolSizeInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a, b := randMat(rng, 120, 70), randMat(rng, 70, 50)
	c := randMat(rng, 120, 50)

	old := parallel.Workers()
	defer parallel.SetWorkers(old)

	parallel.SetWorkers(1)
	serial := MatMul(New(120, 50), a, b)
	serialT := MatMulT(New(120, 70), serial, b)
	serialG := TMatMul(New(70, 50), a, c)

	for _, workers := range []int{2, 5, 16} {
		parallel.SetWorkers(workers)
		par := MatMul(New(120, 50), a, b)
		parT := MatMulT(New(120, 70), serial, b)
		parG := TMatMul(New(70, 50), a, c)
		for i := range serial.Data {
			if par.Data[i] != serial.Data[i] {
				t.Fatalf("workers=%d: MatMul elem %d differs bitwise", workers, i)
			}
		}
		for i := range serialT.Data {
			if parT.Data[i] != serialT.Data[i] {
				t.Fatalf("workers=%d: MatMulT elem %d differs bitwise", workers, i)
			}
		}
		for i := range serialG.Data {
			if parG.Data[i] != serialG.Data[i] {
				t.Fatalf("workers=%d: TMatMul elem %d differs bitwise", workers, i)
			}
		}
	}
}

// TestMatMulTBitIdentical: the four-column kernel and its one-column tail
// return, for every ragged shape, exactly the bits of a plain ascending
// dot product per element — the artifact digests depend on it.
func TestMatMulTBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for rows := 1; rows <= 27; rows += 2 {
		for cols := 1; cols <= 27; cols++ {
			for _, k := range []int{1, 2, 7, 24, 27} {
				a, b := randMat(rng, rows, k), randMat(rng, cols, k)
				// Magnitudes far apart make a sum depend on its order.
				for i := range a.Data {
					a.Data[i] *= math.Pow(10, float64(rng.Intn(13)-6))
				}
				got, want := MatMulT(New(rows, cols), a, b), refMatMulT(a, b)
				for i := range want.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
						t.Fatalf("%dx%d·(%dx%d)ᵀ elem %d: %x, scalar reference %x",
							rows, k, cols, k, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
					}
				}
			}
		}
	}
}
