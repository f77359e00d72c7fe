package tensor

// Exp and Tanh against math.Exp and math.Tanh where those take the FMA
// sequence, and against a table of bits that holds them on every GOARCH.

import (
	"bufio"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
)

var updateTable = flag.Bool("update", false, "rewrite testdata/exp_tanh.bits from the Go reference")

// mathExpFused reports whether math.Exp runs its FMA sequence here: on
// amd64 it does where the CPU has AVX and FMA, unless GODEBUG switches
// a CPU feature off.
func mathExpFused() bool {
	return cpuAVX2() && !strings.Contains(os.Getenv("GODEBUG"), "cpu.")
}

// edgeInputs are the inputs where Exp or Tanh changes branch, with their
// neighbours one and two ulps away: ±0, ±Inf, NaN, the smallest and
// largest subnormals and normals, Exp's overflow threshold and the last
// inputs it scales by 2^1023, the range where its result is subnormal
// and where it underflows, and Tanh's 0.625 and 44.01 branch points;
// and the inputs where Exp's rounding to k is a tie.
func edgeInputs() []float64 {
	centres := []float64{
		0, math.SmallestNonzeroFloat64, 0x1p-1022 - 0x1p-1074, 0x1p-1022, 1, math.MaxFloat64,
		expOverflow, 709.78, 709.436, 709.08956571282405, 708.39641853226408,
		708, 709, 710, 745.13321910194110, 746, 744.44007192138122,
		0.625, tanhSat, 44.01, 22, 0.5, 1e-8, 1e-300,
	}
	xs := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0xfff8000000000001)}
	for _, c := range centres {
		for _, s := range []float64{1, -1} {
			x := c * s
			down, up := x, x
			xs = append(xs, x)
			for i := 0; i < 2; i++ {
				down, up = math.Nextafter(down, math.Inf(-1)), math.Nextafter(up, math.Inf(1))
				xs = append(xs, down, up)
			}
		}
	}
	// Where log2e·x rounds to exactly k + 1/2, CVTSD2SL's ties-to-even
	// picks the scale 2ᵏ.
	for _, k := range []float64{-1001, -1000, -11, -2, -1, 0, 1, 2, 7, 100, 1001} {
		x0 := (k + 0.5) / expLog2e
		for _, dir := range []float64{math.Inf(-1), math.Inf(1)} {
			x := x0
			for i := 0; i < 64; i++ {
				if expLog2e*x == k+0.5 {
					xs = append(xs, x)
				}
				x = math.Nextafter(x, dir)
			}
		}
	}
	return xs
}

// randomInputs appends n random inputs to xs: over Exp's whole finite
// range and beyond it, over the subnormal results −708…−746, over
// Tanh's range, and random bit patterns of every magnitude.
func randomInputs(rng *rand.Rand, xs []float64, n int) []float64 {
	for ; n > 0; n-- {
		switch rng.Intn(5) {
		case 0:
			xs = append(xs, (rng.Float64()*2-1)*760)
		case 1:
			xs = append(xs, -708-rng.Float64()*38)
		case 2:
			xs = append(xs, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-6)))
		case 3:
			xs = append(xs, (rng.Float64()*2-1)*50)
		default:
			xs = append(xs, math.Float64frombits(rng.Uint64()))
		}
	}
	return xs
}

// sameFloat reports whether got is want's bits, any NaN matching any NaN.
func sameFloat(got, want float64) bool {
	return math.Float64bits(got) == math.Float64bits(want) || math.IsNaN(got) && math.IsNaN(want)
}

func TestExpTanhMatchMath(t *testing.T) {
	if !mathExpFused() {
		t.Skip("math.Exp takes its non-FMA sequence here; the table test holds Exp and Tanh")
	}
	n := 2_000_000
	if testing.Short() {
		n = 200_000
	}
	xs := edgeInputs()
	for x := -746.0; x <= -708; x += 1.0 / 4096 {
		xs = append(xs, x)
	}
	for _, x := range randomInputs(rand.New(rand.NewSource(52)), xs, n) {
		if got, want := Exp(x), math.Exp(x); !sameFloat(got, want) {
			t.Fatalf("Exp(%v [%#016x]) = %v [%#016x], math.Exp %v [%#016x]",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if got, want := Tanh(x), math.Tanh(x); !sameFloat(got, want) {
			t.Fatalf("Tanh(%v [%#016x]) = %v [%#016x], math.Tanh %v [%#016x]",
				x, math.Float64bits(x), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

const tablePath = "testdata/exp_tanh.bits"

// TestExpTanhTable holds Exp and Tanh to the bits recorded in testdata,
// on every CPU and GOARCH: whatever math.Exp does here, the trainer's
// exponential does not move. -update rewrites the table.
func TestExpTanhTable(t *testing.T) {
	if *updateTable {
		var b strings.Builder
		b.WriteString("# input, Exp(input), Tanh(input) as float64 bits; go test -run TestExpTanhTable -update rewrites it\n")
		for _, x := range randomInputs(rand.New(rand.NewSource(53)), edgeInputs(), 4000) {
			fmt.Fprintf(&b, "%016x %016x %016x\n", math.Float64bits(x), math.Float64bits(Exp(x)), math.Float64bits(Tanh(x)))
		}
		if err := os.WriteFile(tablePath, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(tablePath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	rows := 0
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "#") {
			continue
		}
		var in, exp, tanh uint64
		if _, err := fmt.Sscanf(sc.Text(), "%x %x %x", &in, &exp, &tanh); err != nil {
			t.Fatalf("%s: %q: %v", tablePath, sc.Text(), err)
		}
		x := math.Float64frombits(in)
		if got := Exp(x); !sameFloat(got, math.Float64frombits(exp)) {
			t.Fatalf("Exp(%v [%#016x]) = %#016x, table %#016x", x, in, math.Float64bits(got), exp)
		}
		if got := Tanh(x); !sameFloat(got, math.Float64frombits(tanh)) {
			t.Fatalf("Tanh(%v [%#016x]) = %#016x, table %#016x", x, in, math.Float64bits(got), tanh)
		}
		rows++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rows < 4000 {
		t.Fatalf("%s has %d rows, want 4000", tablePath, rows)
	}
}
