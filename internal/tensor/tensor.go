// Package tensor provides the dense matrix and vector kernels used by the
// model trainers and data-plane executors. It is intentionally small: all
// shapes are 2-D (Matrix) or 1-D ([]float64), storage is row-major, and
// every routine is allocation-explicit so hot training loops can reuse
// buffers.
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
)

// Matrix is a dense row-major matrix of float64.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (row-major) in a Rows×Cols matrix without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice %dx%d needs %d elems, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix by copying a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged row %d (len %d, want %d)", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j] = v.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// RandInit fills m with uniform values in [-scale, scale] drawn from rng.
func (m *Matrix) RandInit(rng *rand.Rand, scale float64) {
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
}

// GlorotInit fills m with the Glorot/Xavier uniform distribution for a
// layer with fanIn inputs and fanOut outputs.
func (m *Matrix) GlorotInit(rng *rand.Rand, fanIn, fanOut int) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	m.RandInit(rng, limit)
}

// Kernel tuning. parMinFlops is the multiply-add count below which the
// matmul kernels stay serial: the data-plane models Homunculus trains are
// often tiny (a handful of neurons), and goroutine dispatch would dwarf the
// arithmetic. blockK is the depth-blocking factor — a blockK×Cols panel of
// the right operand is streamed through cache while a block of output rows
// accumulates, which is what bounds memory traffic on the wide layers.
const (
	parMinFlops = 1 << 14
	blockK      = 128
)

// matMulGrain returns the minimum number of output rows per parallel chunk
// given flopsPerRow multiply-adds each.
func matMulGrain(flopsPerRow int) int {
	if flopsPerRow <= 0 {
		return parMinFlops
	}
	g := parMinFlops / flopsPerRow
	if g < 1 {
		g = 1
	}
	return g
}

// MatMul computes dst = a·b. dst must be a.Rows×b.Cols and distinct from
// a and b. It returns dst for chaining. Large products are cache-blocked
// over the inner dimension and split row-wise across the shared worker
// pool; every dst element is accumulated in ascending-k order regardless
// of the split, so results are bit-identical at any pool size.
func MatMul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMul dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	// Serial fast path without closure construction: tiny products (the
	// common data-plane model case) must not pay any dispatch overhead.
	if a.Rows*a.Cols*b.Cols < 2*parMinFlops || parallel.Workers() == 1 {
		matMulRows(dst, a, b, 0, a.Rows)
		return dst
	}
	parallel.For(a.Rows, matMulGrain(a.Cols*b.Cols), func(lo, hi int) {
		matMulRows(dst, a, b, lo, hi)
	})
	return dst
}

// matMulRows computes dst rows [lo, hi) of a·b with depth blocking. The
// depth loop is unrolled 4-wide so each pass over the output row retires
// four inputs — the same pattern at every pool size, keeping results
// bit-identical however the rows are chunked.
func matMulRows(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
	}
	for kb := 0; kb < k; kb += blockK {
		kend := kb + blockK
		if kend > k {
			kend = k
		}
		for i := lo; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*n : (i+1)*n]
			kk := kb
			for ; kk+3 < kend; kk += 4 {
				a0, a1, a2, a3 := arow[kk], arow[kk+1], arow[kk+2], arow[kk+3]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				b0 := b.Data[kk*n : (kk+1)*n]
				b1 := b.Data[(kk+1)*n : (kk+2)*n]
				b2 := b.Data[(kk+2)*n : (kk+3)*n]
				b3 := b.Data[(kk+3)*n : (kk+4)*n]
				for j := range drow {
					drow[j] += a0*b0[j] + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; kk < kend; kk++ {
				av := arow[kk]
				if av == 0 {
					continue
				}
				brow := b.Data[kk*n : (kk+1)*n]
				for j, bv := range brow {
					drow[j] += av * bv
				}
			}
		}
	}
}

// MatMulT computes dst = a·bᵀ, i.e. dst[i][j] = dot(a.Row(i), b.Row(j)).
// Rows of dst are computed independently across the shared worker pool;
// each dot product runs in fixed ascending order, so results are
// bit-identical at any pool size.
func MatMulT(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulT dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if a.Rows*a.Cols*b.Rows < 2*parMinFlops || parallel.Workers() == 1 {
		matMulTRows(dst, a, b, 0, a.Rows)
		return dst
	}
	parallel.For(a.Rows, matMulGrain(a.Cols*b.Rows), func(lo, hi int) {
		matMulTRows(dst, a, b, lo, hi)
	})
	return dst
}

// matMulTRows computes dst rows [lo, hi) of a·bᵀ, four output columns per
// pass over the a row. One dot product is a chain of dependent additions,
// each waiting out the previous one's latency; four independent chains
// keep the adder busy. Every chain still sums its own products in
// ascending order, so each element is the bits the one-column loop gives.
func matMulTRows(dst, a, b *Matrix, lo, hi int) {
	k, n := a.Cols, b.Rows
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		drow := dst.Data[i*n : (i+1)*n]
		j := 0
		for ; j+3 < n; j += 4 {
			b0 := b.Data[j*k : (j+1)*k]
			b1 := b.Data[(j+1)*k : (j+2)*k]
			b2 := b.Data[(j+2)*k : (j+3)*k]
			b3 := b.Data[(j+3)*k : (j+4)*k]
			var s0, s1, s2, s3 float64
			for p, av := range arow {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			drow[j], drow[j+1], drow[j+2], drow[j+3] = s0, s1, s2, s3
		}
		for ; j < n; j++ {
			brow := b.Data[j*k : (j+1)*k]
			var s float64
			for p, av := range arow {
				s += av * brow[p]
			}
			drow[j] = s
		}
	}
}

// TMatMul computes dst = aᵀ·b. The output is split row-wise (columns of a)
// across the shared worker pool; each dst element accumulates over samples
// in ascending order within its one chunk, so results are bit-identical at
// any pool size.
func TMatMul(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("tensor: TMatMul shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: TMatMul dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Cols, b.Cols))
	}
	if a.Rows*a.Cols*b.Cols < 2*parMinFlops || parallel.Workers() == 1 {
		tMatMulCols(dst, a, b, 0, a.Cols)
		return dst
	}
	parallel.For(a.Cols, matMulGrain(a.Rows*b.Cols), func(lo, hi int) {
		tMatMulCols(dst, a, b, lo, hi)
	})
	return dst
}

// tMatMulCols accumulates dst rows [lo, hi) of aᵀ·b (i.e. columns [lo, hi)
// of a), streaming sample rows of a and b across the whole chunk four at a
// time so each pass over an output row retires four samples. The unroll
// pattern is the same at every pool size, keeping results bit-identical
// however the columns are chunked.
func tMatMulCols(dst, a, b *Matrix, lo, hi int) {
	m, n := a.Cols, b.Cols
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			drow[j] = 0
		}
	}
	r := 0
	for ; r+3 < a.Rows; r += 4 {
		a0 := a.Data[r*m : (r+1)*m]
		a1 := a.Data[(r+1)*m : (r+2)*m]
		a2 := a.Data[(r+2)*m : (r+3)*m]
		a3 := a.Data[(r+3)*m : (r+4)*m]
		b0 := b.Data[r*n : (r+1)*n]
		b1 := b.Data[(r+1)*n : (r+2)*n]
		b2 := b.Data[(r+2)*n : (r+3)*n]
		b3 := b.Data[(r+3)*n : (r+4)*n]
		for i := lo; i < hi; i++ {
			v0, v1, v2, v3 := a0[i], a1[i], a2[i], a3[i]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j := range drow {
				drow[j] += v0*b0[j] + v1*b1[j] + v2*b2[j] + v3*b3[j]
			}
		}
	}
	for ; r < a.Rows; r++ {
		arow := a.Data[r*m : (r+1)*m]
		brow := b.Data[r*n : (r+1)*n]
		for i := lo; i < hi; i++ {
			av := arow[i]
			if av == 0 {
				continue
			}
			drow := dst.Data[i*n : (i+1)*n]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// Dot returns the inner product of equal-length vectors a and b.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		s += av * b[i]
	}
	return s
}

// Axpy computes dst[i] += alpha*x[i].
func Axpy(dst []float64, alpha float64, x []float64) {
	if len(dst) != len(x) {
		panic(fmt.Sprintf("tensor: Axpy length mismatch %d vs %d", len(dst), len(x)))
	}
	for i, xv := range x {
		dst[i] += alpha * xv
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(x []float64, alpha float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// AddBias adds the bias vector b to every row of m in place.
func AddBias(m *Matrix, b []float64) {
	if len(b) != m.Cols {
		panic(fmt.Sprintf("tensor: AddBias len %d, want %d", len(b), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, bv := range b {
			row[j] += bv
		}
	}
}

// ColSums accumulates the per-column sums of m into dst (len m.Cols).
func ColSums(dst []float64, m *Matrix) {
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("tensor: ColSums len %d, want %d", len(dst), m.Cols))
	}
	for i := range dst {
		dst[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
}

// ArgMax returns the index of the largest element of x (first on ties).
// It returns -1 for an empty slice.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best, bi := x[0], 0
	for i := 1; i < len(x); i++ {
		if x[i] > best {
			best, bi = x[i], i
		}
	}
	return bi
}

// SqDist returns the squared Euclidean distance between a and b.
func SqDist(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: SqDist length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i, av := range a {
		d := av - b[i]
		s += d * d
	}
	return s
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x, or 0 for len(x) < 2.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Shuffle permutes idx in place using rng (Fisher–Yates).
func Shuffle(rng *rand.Rand, idx []int) {
	for i := len(idx) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		idx[i], idx[j] = idx[j], idx[i]
	}
}

// Range returns [0, 1, ..., n-1].
func Range(n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
