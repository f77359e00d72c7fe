package tensor

import "math"

// Exp and Tanh are the one definition of eˣ and tanh x that the trainer
// and the float reference inference use, on every CPU and GOARCH. Exp is
// the FMA sequence of the amd64 assembly behind math.Exp (Shibata's
// SIMD-friendly method, ISC'10), written in Go: math.FMA where that
// assembly fuses, so it gives math.Exp's bits on an FMA CPU and the same
// bits everywhere else, where math.Exp takes a differently rounded
// sequence. Every product the assembly rounds on its own is wrapped in
// float64(), which keeps a compiler that fuses (arm64, GOAMD64=v3) from
// fusing it. The AVX2 kernels run the same operations four lanes at a
// time.

// The constants of math's exp_amd64.s.
const (
	expLog2e    = 1.4426950408889634073599246810018920        // 1/ln 2
	expLn2Hi    = 0.69314718055966295651160180568695068359375 // upper half of ln 2
	expLn2Lo    = 0.28235290563031577122588448175013436025525412068e-12
	expOverflow = 7.09782712893384e+02
)

// expPoly are the coefficients 1/8!, 1/7!, …, 1/2!, 1 of
// eʳ − 1 = r·(1 + r/2! + … + r⁷/8!), in the Horner order exp_amd64.s
// evaluates them.
var expPoly = [...]float64{
	2.4801587301587301587e-5,
	1.9841269841269841270e-4,
	1.3888888888888888889e-3,
	8.3333333333333333333e-3,
	4.1666666666666666667e-2,
	1.6666666666666666667e-1,
	0.5,
	1.0,
}

// Exp returns eˣ. Exp(+Inf) = +Inf, Exp(-Inf) = 0, Exp(NaN) = NaN, and
// x above ln(MaxFloat64) gives +Inf.
func Exp(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	}
	k := roundInt32(float64(expLog2e * x))
	kf := float64(k)
	// r = x − k·ln2 in two fused steps, then r/16.
	r := math.FMA(-kf, expLn2Hi, x)
	r = math.FMA(-kf, expLn2Lo, r)
	r = float64(r * 0.0625)
	p := expPoly[0]
	for _, c := range expPoly[1:] {
		p = math.FMA(p, r, c)
	}
	// (eʳ − 1) squared up four times: e^(16r) − 1, the last step adding 1.
	r = float64(r * p)
	for i := 0; i < 3; i++ {
		r = float64(r * (r + 2))
	}
	r = math.FMA(r, r+2, 1)
	// Scale by 2ᵏ through the exponent field; a result below the normal
	// range takes two steps so the second rounds it to a subnormal.
	e := k + 0x3ff
	if e <= 0 {
		if e < -52 {
			return 0
		}
		r = float64(r * math.Float64frombits(uint64(e+0x3fe)<<52))
		e = 1
	}
	if e >= 0x7ff {
		return math.Inf(1)
	}
	return r * math.Float64frombits(uint64(e)<<52)
}

// roundInt32 is CVTSD2SL under the default rounding mode: t rounded to
// the nearest int32, ties to even, and math.MinInt32 (the "integer
// indefinite") where that does not fit.
func roundInt32(t float64) int {
	r := math.RoundToEven(t)
	if !(r >= math.MinInt32 && r <= math.MaxInt32) {
		return math.MinInt32
	}
	return int(r)
}

// The rational approximation of math.tanh below |x| = 0.625.
var (
	tanhP = [...]float64{
		-9.64399179425052238628e-1,
		-9.92877231001918586564e1,
		-1.61468768441708447952e3,
	}
	tanhQ = [...]float64{
		1.12811678491632931402e2,
		2.23548839060100448583e3,
		4.84406305325125486048e3,
	}
)

// tanhSat is half of ln(2¹²⁷): above it tanh rounds to ±1.
const tanhSat = 0.5 * 8.8029691931113054295988e+01

// Tanh returns the hyperbolic tangent of x by math.tanh's algorithm, its
// exponential taken by Exp. Tanh(±0) = ±0, Tanh(±Inf) = ±1 and
// Tanh(NaN) = NaN.
func Tanh(x float64) float64 {
	z := math.Abs(x)
	switch {
	case z > tanhSat:
		if x < 0 {
			return -1
		}
		return 1
	case z >= 0.625:
		s := Exp(2 * z)
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
		return z
	case x == 0:
		return x
	}
	s := float64(x * x)
	p := float64(tanhP[0]*s) + tanhP[1]
	p = float64(p*s) + tanhP[2]
	q := float64((s+tanhQ[0])*s) + tanhQ[1]
	q = float64(q*s) + tanhQ[2]
	return x + float64(x*s)*p/q
}
