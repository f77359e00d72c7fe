package fixed

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFormatBounds(t *testing.T) {
	f := Q8_8
	if f.Bits() != 16 {
		t.Fatalf("Q8.8 bits = %d", f.Bits())
	}
	if f.Max() < 127.99 || f.Max() > 128 {
		t.Fatalf("Q8.8 max = %v", f.Max())
	}
	if f.Min() != -128 {
		t.Fatalf("Q8.8 min = %v", f.Min())
	}
	if f.Eps() != 1.0/256 {
		t.Fatalf("Q8.8 eps = %v", f.Eps())
	}
	if f.String() != "Q8.8" {
		t.Fatalf("String = %q", f.String())
	}
}

func TestQuantizeRoundTripAccuracy(t *testing.T) {
	f := Q8_8
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, 3.14159, -2.71828, 100.25} {
		rt := f.RoundTrip(v)
		if math.Abs(rt-v) > f.Eps()/2+1e-12 {
			t.Fatalf("RoundTrip(%v) = %v, err > eps/2", v, rt)
		}
	}
}

func TestQuantizeSaturation(t *testing.T) {
	f := Q8_8
	if f.Dequantize(f.Quantize(1e9)) != f.Max() {
		t.Fatal("positive overflow must saturate at Max")
	}
	if f.Dequantize(f.Quantize(-1e9)) != f.Min() {
		t.Fatal("negative overflow must saturate at Min")
	}
	if f.Quantize(math.NaN()) != 0 {
		t.Fatal("NaN must quantize to 0")
	}
}

func TestMulAdd(t *testing.T) {
	f := Q8_8
	a, b := f.Quantize(1.5), f.Quantize(2.0)
	if got := f.Dequantize(f.Add(a, b)); math.Abs(got-3.5) > 1e-12 {
		t.Fatalf("Add 1.5+2.0 = %v", got)
	}
	// saturating add
	big := f.Quantize(f.Max())
	if f.Add(big, big) != f.Quantize(f.Max()) {
		t.Fatal("Add must saturate")
	}
}

func TestDotQMatchesFloat(t *testing.T) {
	f := Q8_8
	rng := rand.New(rand.NewSource(11))
	a := make([]float64, 32)
	b := make([]float64, 32)
	var want float64
	for i := range a {
		a[i] = rng.Float64()*2 - 1
		b[i] = rng.Float64()*2 - 1
		want += f.RoundTrip(a[i]) * f.RoundTrip(b[i])
	}
	got := f.Dequantize(f.DotQ(f.QuantizeVec(a), f.QuantizeVec(b)))
	if math.Abs(got-want) > f.Eps()*2 {
		t.Fatalf("DotQ = %v, want %v", got, want)
	}
}

func TestReLUQ(t *testing.T) {
	if ReLUQ(-5) != 0 || ReLUQ(7) != 7 || ReLUQ(0) != 0 {
		t.Fatal("ReLUQ broken")
	}
}

func TestSigmoidQ(t *testing.T) {
	f := Q8_8
	if got := f.Dequantize(f.SigmoidQ(f.Quantize(0))); math.Abs(got-0.5) > f.Eps() {
		t.Fatalf("sigmoid(0) = %v", got)
	}
	if got := f.Dequantize(f.SigmoidQ(f.Quantize(10))); got != 1 {
		t.Fatalf("sigmoid(10) = %v", got)
	}
	if got := f.Dequantize(f.SigmoidQ(f.Quantize(-10))); got != 0 {
		t.Fatalf("sigmoid(-10) = %v", got)
	}
	// monotone on the linear segment
	prev := int32(math.MinInt32)
	for x := -4.0; x <= 4.0; x += 0.25 {
		y := f.SigmoidQ(f.Quantize(x))
		if y < prev {
			t.Fatalf("sigmoid not monotone at %v", x)
		}
		prev = y
	}
}

// Property: quantization error is bounded by half an LSB for in-range
// values, for several formats.
func TestQuantizeErrorBoundQuick(t *testing.T) {
	formats := []Format{Q8_8, Q4_12, Q16_16}
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
		for _, fm := range formats {
			if v > fm.Max() || v < fm.Min() {
				continue
			}
			if math.Abs(fm.RoundTrip(v)-v) > fm.Eps()/2+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: Add is commutative in the raw domain.
func TestCommutativityQuick(t *testing.T) {
	fm := Q8_8
	f := func(a, b int16) bool {
		x, y := int32(a), int32(b)
		return fm.Add(x, y) == fm.Add(y, x)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestVecHelpers(t *testing.T) {
	f := Q4_12
	v := []float64{0.25, -0.75, 1.5}
	q := f.QuantizeVec(v)
	for i := range v {
		if back := f.Dequantize(q[i]); math.Abs(back-v[i]) > f.Eps() {
			t.Fatalf("vec roundtrip[%d] = %v want %v", i, back, v[i])
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	for _, f := range []Format{Q8_8, Q4_12, Q16_16, {IntBits: 0, FracBits: 15}} {
		got, err := ParseFormat(f.String())
		if err != nil {
			t.Fatalf("ParseFormat(%s): %v", f, err)
		}
		if got != f {
			t.Fatalf("ParseFormat(%s) = %+v, want %+v", f, got, f)
		}
	}
	for _, bad := range []string{"", "8.8", "Q8", "Qx.8", "Q8.y", "Q40.40", "Q0.8",
		"Q-9223372036854775808.0", "Q9223372036854775807.9223372036854775807"} {
		if _, err := ParseFormat(bad); err == nil {
			t.Fatalf("ParseFormat(%q) must fail", bad)
		}
	}
}

func TestRawBounds(t *testing.T) {
	f := Q8_8
	if f.MaxRaw() != 32767 || f.MinRaw() != -32768 {
		t.Fatalf("Q8.8 raw bounds = [%d, %d]", f.MinRaw(), f.MaxRaw())
	}
	if f.Quantize(f.Max()+1) != f.MaxRaw() || f.Quantize(f.Min()-1) != f.MinRaw() {
		t.Fatal("quantize must saturate at the exported raw bounds")
	}
}

// Property: Writeback is exactly DotQ's finalization — a DotQ over any
// vector equals the Writeback of its wide accumulator.
func TestWritebackMatchesDotQ(t *testing.T) {
	fm := Q8_8
	f := func(a, b [9]int16) bool {
		av := make([]int32, len(a))
		bv := make([]int32, len(b))
		var acc int64
		for i := range a {
			av[i], bv[i] = int32(a[i]), int32(b[i])
			acc += int64(av[i]) * int64(bv[i])
		}
		return fm.DotQ(av, bv) == fm.Writeback(acc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
