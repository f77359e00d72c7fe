// Package fixed implements the Q-format fixed-point arithmetic used by the
// data-plane executors. Programmable switches (Taurus CUs, MAT ALUs) have
// no floating-point units; generated pipelines compute in two's-complement
// fixed point. The Format type captures a word layout (integer bits,
// fraction bits) and provides saturating conversion and multiply-accumulate
// so that quantized inference exactly matches what the generated hardware
// would compute.
package fixed

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Format describes a signed fixed-point layout Qm.n: 1 sign bit, m integer
// bits, and n fraction bits, stored in an int32 word.
type Format struct {
	IntBits  int // m
	FracBits int // n
}

// Q8_8 is the default data-plane format used by the Taurus backend
// (16-bit words: 1 sign, 7 integer, 8 fraction bits — referred to as
// "Q8.8" following the inclusive-sign convention used in the Taurus paper).
var Q8_8 = Format{IntBits: 7, FracBits: 8}

// Q4_12 trades range for precision (16-bit words).
var Q4_12 = Format{IntBits: 3, FracBits: 12}

// Q16_16 is a wide 32-bit format used for accumulators.
var Q16_16 = Format{IntBits: 15, FracBits: 16}

// Bits returns the total word width including the sign bit.
func (f Format) Bits() int { return 1 + f.IntBits + f.FracBits }

// String renders the format as "Qm.n" (inclusive of the sign bit in m,
// matching hardware-documentation convention).
func (f Format) String() string { return fmt.Sprintf("Q%d.%d", f.IntBits+1, f.FracBits) }

// ParseFormat inverts String: "Q8.8" -> Format{IntBits: 7, FracBits: 8}.
// Generated artifacts carry the format in their header line; interpreters
// that execute the artifact text recover the word layout through this.
func ParseFormat(s string) (Format, error) {
	rest, ok := strings.CutPrefix(s, "Q")
	if !ok {
		return Format{}, fmt.Errorf("fixed: format %q does not start with Q", s)
	}
	mStr, nStr, ok := strings.Cut(rest, ".")
	if !ok {
		return Format{}, fmt.Errorf("fixed: format %q is not Qm.n", s)
	}
	m, err := strconv.Atoi(mStr)
	if err != nil {
		return Format{}, fmt.Errorf("fixed: format %q integer bits: %w", s, err)
	}
	n, err := strconv.Atoi(nStr)
	if err != nil {
		return Format{}, fmt.Errorf("fixed: format %q fraction bits: %w", s, err)
	}
	// Each part is bounded before they are added, so no sum wraps.
	if m < 1 || n < 0 || m > 32 || n > 32 || m+n > 32 {
		return Format{}, fmt.Errorf("fixed: format %q out of range (1 <= m, 0 <= n, m+n <= 32)", s)
	}
	return Format{IntBits: m - 1, FracBits: n}, nil
}

// Max returns the largest representable value.
func (f Format) Max() float64 {
	return float64(f.maxRaw()) / float64(int64(1)<<uint(f.FracBits))
}

// Min returns the smallest (most negative) representable value.
func (f Format) Min() float64 {
	return float64(f.minRaw()) / float64(int64(1)<<uint(f.FracBits))
}

// Eps returns the quantization step (value of one LSB).
func (f Format) Eps() float64 { return 1.0 / float64(int64(1)<<uint(f.FracBits)) }

func (f Format) maxRaw() int64 { return int64(1)<<uint(f.IntBits+f.FracBits) - 1 }
func (f Format) minRaw() int64 { return -(int64(1) << uint(f.IntBits+f.FracBits)) }

// MaxRaw returns the largest representable raw word — the upper bound a
// range-match table entry can carry.
func (f Format) MaxRaw() int32 { return int32(f.maxRaw()) }

// MinRaw returns the smallest (most negative) representable raw word.
func (f Format) MinRaw() int32 { return int32(f.minRaw()) }

// Quantize converts v to the nearest representable raw word, saturating at
// the format bounds. NaN quantizes to 0.
func (f Format) Quantize(v float64) int32 {
	if math.IsNaN(v) {
		return 0
	}
	raw := math.Round(v * float64(int64(1)<<uint(f.FracBits)))
	if raw > float64(f.maxRaw()) {
		return int32(f.maxRaw())
	}
	if raw < float64(f.minRaw()) {
		return int32(f.minRaw())
	}
	return int32(raw)
}

// Dequantize converts a raw word back to float64.
func (f Format) Dequantize(raw int32) float64 {
	return float64(raw) / float64(int64(1)<<uint(f.FracBits))
}

// RoundTrip quantizes then dequantizes v — the value the hardware would see.
func (f Format) RoundTrip(v float64) float64 { return f.Dequantize(f.Quantize(v)) }

// Add adds two raw words with saturation.
func (f Format) Add(a, b int32) int32 { return f.saturate(int64(a) + int64(b)) }

func (f Format) saturate(v int64) int32 {
	if v > f.maxRaw() {
		return int32(f.maxRaw())
	}
	if v < f.minRaw() {
		return int32(f.minRaw())
	}
	return int32(v)
}

// DotQ computes the fixed-point dot product of two raw vectors using a
// wide 64-bit accumulator (matching the Taurus reduce tree, which keeps
// full precision until the final writeback) and saturates the result.
// The lanes are 4-way unrolled; two's-complement int64 addition is
// associative mod 2^64, so the reassociated sum is bit-identical to the
// sequential one.
func (f Format) DotQ(a, b []int32) int32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("fixed: DotQ length mismatch %d vs %d", len(a), len(b)))
	}
	b = b[:len(a)]
	var acc0, acc1, acc2, acc3 int64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		acc0 += int64(a[i]) * int64(b[i])
		acc1 += int64(a[i+1]) * int64(b[i+1])
		acc2 += int64(a[i+2]) * int64(b[i+2])
		acc3 += int64(a[i+3]) * int64(b[i+3])
	}
	acc := acc0 + acc1 + acc2 + acc3
	for ; i < len(a); i++ {
		acc += int64(a[i]) * int64(b[i])
	}
	return f.saturate(acc >> uint(f.FracBits))
}

// Writeback finalizes a wide multiply-accumulate sum: rescale the
// 2n-fraction-bit accumulator back to n fraction bits and saturate. It is
// the final step of DotQ, exported so executors that keep their own wide
// accumulator (the Taurus reduce tree, the artifact interpreters) share
// DotQ's exact semantics: full precision until this single writeback.
func (f Format) Writeback(acc int64) int32 {
	return f.saturate(acc >> uint(f.FracBits))
}

// QuantizeVec quantizes a float vector into a fresh raw-word slice.
func (f Format) QuantizeVec(v []float64) []int32 {
	out := make([]int32, len(v))
	for i, x := range v {
		out[i] = f.Quantize(x)
	}
	return out
}

// ReLUQ applies the rectifier in the raw domain.
func ReLUQ(v int32) int32 {
	if v < 0 {
		return 0
	}
	return v
}

// SigmoidQ applies a piecewise-linear sigmoid approximation in the raw
// domain — the lookup-table-free approximation data planes typically use
// (three segments: saturate below -4, above +4, linear slope 1/8 between,
// offset 0.5).
func (f Format) SigmoidQ(v int32) int32 {
	x := f.Dequantize(v)
	var y float64
	switch {
	case x <= -4:
		y = 0
	case x >= 4:
		y = 1
	default:
		y = 0.125*x + 0.5
	}
	return f.Quantize(y)
}
