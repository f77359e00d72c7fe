package httpapi

import (
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/alchemy"
	"repro/internal/loaders"
)

// checkNumber fails unless parseNumber does with spelling — a number in
// the JSON grammar — what strconv.ParseFloat does: refuses it, or takes
// all of it and decodes it to the same bits. It is run with the number
// ending the buffer (the eight-digit load must not reach past it) and
// with a document carrying on behind it, and returns the leg taken.
func checkNumber(t testing.TB, spelling string) numberLeg {
	t.Helper()
	want, wantErr := strconv.ParseFloat(spelling, 64)
	var leg numberLeg
	for _, doc := range []string{spelling, spelling + ",12345678]"} {
		var got float64
		var end int
		got, end, leg = parseNumber([]byte(doc), 0)
		switch {
		case wantErr != nil && leg != noNumber:
			t.Fatalf("%q: decoded to %v down leg %d, strconv refuses it: %v", doc, got, leg, wantErr)
		case wantErr == nil && (leg == noNumber || end != len(spelling)):
			t.Fatalf("%q: leg %d, end %d; strconv takes all %d bytes as %v", doc, leg, end, len(spelling), want)
		case wantErr == nil && math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("%q: %v (%#x) down leg %d, strconv has %v (%#x)", doc, got, math.Float64bits(got), leg, want, math.Float64bits(want))
		}
	}
	return leg
}

// spell writes digits with the decimal point after the first point of
// them ("0." in front when point is 0, none when it is past the last)
// and exp as the written exponent, left out when writeExp is false.
func spell(digits string, point, exp int, writeExp bool) string {
	var b strings.Builder
	switch {
	case point <= 0:
		b.WriteString("0." + digits)
	case point >= len(digits):
		b.WriteString(digits)
	default:
		b.WriteString(digits[:point] + "." + digits[point:])
	}
	if writeExp {
		b.WriteString("e" + strconv.Itoa(exp))
	}
	return b.String()
}

// aroundMidpoint returns the midpoint of f and the next float64 up,
// exact in math/big, rounded to nd significant decimal digits, and that
// decimal's two neighbours one unit in its last place away: as mantissa
// strings with the exponent of the last digit. At 19 digits or fewer
// these are the spellings closest to a rounding boundary that the exact
// legs can be handed.
func aroundMidpoint(f float64, nd int) (mants [3]string, exp10 int) {
	mid := new(big.Float).SetPrec(64).SetFloat64(f)
	mid.Add(mid, new(big.Float).SetFloat64(math.Nextafter(f, math.Inf(1))))
	mid.Quo(mid, big.NewFloat(2))
	text := mid.Text('e', nd-1) // d.ddd…e±xx
	mantissa, exponent, _ := strings.Cut(text, "e")
	m, _ := strconv.ParseUint(strings.Replace(mantissa, ".", "", 1), 10, 64)
	exp10, _ = strconv.Atoi(exponent)
	for k := range mants {
		mants[k] = strconv.FormatUint(m+uint64(k)-1, 10)
	}
	return mants, exp10 - (nd - 1)
}

// FuzzParseNumber fuzzes the number decoder by structure, since bytes
// mutated at random almost never spell a rounding boundary: a mantissa,
// a decimal exponent and a layout are written out plain, with the point
// at a fuzzed position, behind leading zeros and with an exponent, and
// so are the decimals around the midpoint above the float64 they denote.
// Every spelling must be refused or decoded exactly as strconv does.
func FuzzParseNumber(f *testing.F) {
	f.Add(uint64(0), int16(0), uint8(0))
	f.Add(uint64(3), int16(-1), uint8(1))
	f.Add(uint64(1)<<53+1, int16(0), uint8(2))
	f.Add(uint64(90071992547409925), int16(-1), uint8(7))
	f.Add(uint64(8414709848078965), int16(-16), uint8(9))
	f.Add(uint64(29999999999999998), int16(-17), uint8(33))
	f.Add(uint64(12345678901234567), int16(-19), uint8(4))
	f.Add(uint64(12345678901234567), int16(-20), uint8(5))
	f.Add(uint64(17976931348623157), int16(292), uint8(6))
	f.Add(uint64(math.MaxUint64), int16(-19), uint8(255))
	f.Add(uint64(1), int16(math.MinInt16), uint8(0))
	f.Add(uint64(1), int16(math.MaxInt16), uint8(0))
	f.Fuzz(func(t *testing.T, mant uint64, exp10 int16, layout uint8) {
		digits := strconv.FormatUint(mant, 10)
		point := int(layout>>3) % (len(digits) + 1)
		exp := int(exp10)
		if layout&1 == 0 {
			exp %= 40 // stay near the exact legs half of the time
		}
		written := exp + len(digits) - point // so that the value is mant × 10^exp
		spellings := []string{
			digits,
			spell(digits, point, 0, false),
			spell(digits, point, written, true),
			spell(digits, len(digits), exp, true),
			"-" + spell(digits, point, written, true),
			spell(strings.Repeat("0", int(layout>>2)%24)+digits, 0, 0, false),
			strings.NewReplacer("e-", "E-", "e", "E+").Replace(spell(digits, 1, exp, true)),
		}
		v, err := strconv.ParseFloat(spellings[2], 64)
		if err == nil && v != 0 && v != math.MaxFloat64 {
			mants, e := aroundMidpoint(v, 15+int(layout)%5)
			for _, m := range mants {
				spellings = append(spellings, spell(m, len(m), e, true), spell(m, point%(len(m)+1), e+len(m)-point%(len(m)+1), true))
				if -40 < e && e < 0 {
					spellings = append(spellings, spell(strings.Repeat("0", max(0, -e-len(m)))+m, len(m)+e, 0, false))
				}
			}
		}
		for _, s := range spellings {
			checkNumber(t, s)
		}
	})
}

// TestParseNumberEdges: the hostile and the boundary spellings, one by
// one, with the leg each must take.
func TestParseNumberEdges(t *testing.T) {
	for _, c := range []struct {
		spelling string
		leg      numberLeg
	}{
		{"0", legZero}, {"-0", legZero}, {"-0.0", legZero}, {"-0e5", legZero}, {"0e99999999999999999999", legStrconv},
		{"0." + strings.Repeat("0", 40), legZero},
		{"1", legClinger}, {"12345678", legClinger}, {"123456789", legClinger}, {"0.3", legClinger},
		{"0.30000000000000004", legDivide}, {"0.1000000000000000055", legDivide},
		{"0." + strings.Repeat("0", 30) + "123", legStrconv}, // 3 digits, exp10 -33
		{"0.0000000123", legClinger},                         // the zeros are not digits
		{"0.000123456789012345678", legStrconv},              // 18 digits, exp10 -21
		{"9007199254740991", legClinger},                     // 2^53 - 1
		{"9007199254740993", legStrconv},                     // 2^53 + 1: a tie, exp10 0
		{"9007199254740993.0", legDivide},                    // the same tie through the divide
		{"9007199254740992.5", legDivide},                    // below the tie
		{"4503599627370496.5", legDivide},                    // a tie with the even side down
		{"4503599627370497.5", legDivide},                    // and up
		{"123456789012345678e-18", legDivide}, {"1.2345678901234567e-3", legDivide},
		{"12345678901234567e-19", legDivide}, {"12345678901234567e-20", legStrconv}, {"12345678901234567e1", legStrconv},
		{"1e22", legClinger}, {"1e23", legStrconv}, {"1e-22", legClinger}, {"1e-23", legStrconv},
		{"9999999999999999999", legStrconv},    // 19 digits, exp10 0
		{"0.9999999999999999999", legDivide},   // rounds up to 1
		{"0.10000000000000000000", legStrconv}, // 20 digits
		{"18446744073709551616", legStrconv},   // 2^64: the mantissa wraps to 0
		{"1.7976931348623157e308", legStrconv}, {"2.2250738585072011e-308", legStrconv}, {"4.9e-324", legStrconv},
		{"1e-99999999999999999999", legStrconv}, {"1e99999999999999999999", noNumber}, {"1e999", noNumber},
		{"0." + strings.Repeat("0", 99) + "1e100000000", noNumber}, // a saturated exponent is not 10^0
	} {
		if leg := checkNumber(t, c.spelling); leg != c.leg {
			t.Errorf("%q took leg %d, want %d", c.spelling, leg, c.leg)
		}
	}
	if v, _, _ := parseNumber([]byte("-0e5"), 0); !math.Signbit(v) {
		t.Errorf("-0e5 lost its sign")
	}
	// What the grammar refuses, and how far it reads what it takes.
	for doc, end := range map[string]int{
		"": -1, "-": -1, "+1": -1, ".5": -1, "1.": -1, "1.e5": -1, "1e": -1, "1e+": -1, "-.5": -1, "e5": -1, "1.2e-": -1,
		"01": 1, "-01": 2, "1.5.3": 3, "1e5e5": 3, "12a": 2, "1,2": 1, "0x10": 1, "1_0": 1,
	} {
		_, got, leg := parseNumber([]byte(doc), 0)
		if (end < 0) != (leg == noNumber) || end >= 0 && got != end {
			t.Errorf("%q: leg %d, end %d; want end %d", doc, leg, got, end)
		}
	}
}

// TestScanDigits checks the eight-at-a-time step against the byte loop:
// on words of digits, and on words where one byte is anything else.
func TestScanDigits(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 19)
	for n := 0; n < 200_000; n++ {
		for i := range buf {
			buf[i] = '0' + byte(rng.Intn(10))
		}
		stop := len(buf)
		if n%2 == 1 {
			stop = rng.Intn(len(buf))
			buf[stop] = byte(n >> 1) // every byte value, digits included
			for stop < len(buf) && buf[stop]-'0' <= 9 {
				stop++
			}
		}
		want, _ := strconv.ParseUint(string(buf[:stop]), 10, 64) // 0 for the empty run
		if got, end := scanDigits(buf, 0, 0); got != want || end != stop {
			t.Fatalf("scanDigits(%q) = %d, %d; want %d, %d", buf, got, end, want, stop)
		}
	}
}

// differentialMantissas sizes TestParseNumberDifferential: about sixteen
// spellings a mantissa. The race detector, which has nothing to find in
// a single-goroutine comparison, makes it ten times slower and runs a
// fiftieth (classify_number_race_test.go).
const differentialFull = 700_000

var differentialMantissas = differentialFull

// TestParseNumberDifferential holds parseNumber to strconv.ParseFloat,
// bit for bit, over ten million generated spellings: random mantissas of
// 1 to 19 digits with the point at every position and exponents across
// the legs' edges, and random float64s — uniform in their bits, uniform
// in (0,1), integers around 2^53 — in the 'g', 'e' and 'f' formats at 0
// to 19 digits and at the shortest that round-trips.
func TestParseNumberDifferential(t *testing.T) {
	mantissas := differentialMantissas
	if testing.Short() {
		mantissas /= 50
	}
	rng := rand.New(rand.NewSource(24))
	var legs [legStrconv + 1]int
	check := func(s string) { legs[checkNumber(t, s)]++ }
	for n := 0; n < mantissas; n++ {
		nd := 1 + n%19
		digits := strconv.FormatUint(rng.Uint64()%pow10u[nd], 10)
		exp := rng.Intn(50) - 25
		for point := 0; point <= len(digits); point++ {
			check(spell(digits, point, 0, false))
		}
		check(spell(digits, rng.Intn(len(digits)+1), exp, true))
		check("-" + spell(digits, len(digits), exp, true))

		var v float64
		switch n % 3 {
		case 0:
			v = math.Float64frombits(rng.Uint64())
		case 1:
			v = rng.Float64()
		case 2:
			v = float64(1<<52 + rng.Int63n(1<<56))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		prec := n%21 - 1 // -1: shortest
		for _, format := range []byte{'g', 'e', 'f'} {
			if format == 'f' && math.Abs(v) > 1e25 {
				continue // hundreds of digits of strconv against strconv
			}
			check(strconv.FormatFloat(v, format, prec, 64))
		}
	}
	total := 0
	for _, n := range legs {
		total += n
	}
	t.Logf("%d spellings: refused %d, zero %d, clinger %d, divide %d, strconv %d", total,
		legs[noNumber], legs[legZero], legs[legClinger], legs[legDivide], legs[legStrconv])
	if mantissas == differentialFull && total < 10_000_000 {
		t.Errorf("%d spellings, want at least ten million", total)
	}
	for leg := legZero; leg <= legStrconv; leg++ {
		if legs[leg] == 0 {
			t.Errorf("no spelling took leg %d", leg)
		}
	}
}

// benchTraffic is what the repo benchmark posts: the bundled generators
// at the seeds of its serve fixtures, over the population genTraffic
// draws from (bench/inputs.go).
func benchTraffic(t testing.TB) map[string][][]float64 {
	t.Helper()
	out := make(map[string][][]float64)
	for name, loader := range map[string]alchemy.DataLoader{
		"nslkdd": loaders.NSLKDD(1200, 7001),
		"iottc":  loaders.IoTTC(1200, 7002),
		"botnet": loaders.Botnet(150, 7004),
	} {
		data, err := loader.Load()
		if err != nil {
			t.Fatal(err)
		}
		out[name] = append(data.TestX, data.TrainX...)
	}
	return out
}

// TestFastPathCoversBenchTraffic pins the traffic claim behind the
// decoder's legs: of the numbers the benchmark's clients send, spelled
// as encoding/json spells them, fewer than one in a thousand are left to
// strconv, and all decode to the bits they were rendered from.
func TestFastPathCoversBenchTraffic(t *testing.T) {
	for name, xs := range benchTraffic(t) {
		doc, err := json.Marshal(ClassifyRequest{Features: xs})
		if err != nil {
			t.Fatal(err)
		}
		b := new(classifyBuf)
		b.body.Write(doc)
		if !b.parseCanonical() {
			t.Fatalf("%s: not decoded as canonical", name)
		}
		sameRows(t, doc[:40], b.rows, xs)

		var legs [legStrconv + 1]int
		var sigDigits [20]int
		total := 0
		for _, x := range xs {
			for _, v := range x {
				spelling, _ := json.Marshal(v)
				legs[checkNumber(t, string(spelling))]++
				mantissa, _, _ := strings.Cut(strconv.FormatFloat(v, 'e', -1, 64), "e")
				sigDigits[len(mantissa)-strings.Count(mantissa, ".")-strings.Count(mantissa, "-")]++
				total++
			}
		}
		t.Logf("%s: %d numbers, %.1f bytes each: zero %d, clinger %d, divide %d, strconv %d; by significant digits (0-19) %v",
			name, total, float64(len(doc))/float64(total), legs[legZero], legs[legClinger], legs[legDivide], legs[legStrconv], sigDigits)
		if legs[noNumber] != 0 || legs[legStrconv]*1000 >= total {
			t.Errorf("%s: %d of %d numbers refused, %d left to strconv; want none and under 0.1%%", name, legs[noNumber], total, legs[legStrconv])
		}
	}
}

// BenchmarkClassifyDecodeBatch256 decodes one request document of the
// repo benchmark's shape — 256 vectors of 7 features, shortest-spelling
// floats in (0,1) — into a warm classifyBuf.
func BenchmarkClassifyDecodeBatch256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, 256)
	for i := range xs {
		xs[i] = make([]float64, 7)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	doc, err := json.Marshal(ClassifyRequest{Features: xs})
	if err != nil {
		b.Fatal(err)
	}
	buf := new(classifyBuf)
	buf.body.Write(doc)
	if !buf.parseCanonical() {
		b.Fatal("not decoded as canonical")
	}
	sameRows(b, doc[:40], buf.rows, xs)
	// The first call sized flat and rows; from then on nothing is allocated.
	if allocs := testing.AllocsPerRun(20, func() { buf.parseCanonical() }); allocs != 0 {
		b.Fatalf("decode of a warm buffer allocated %.0f times, budget 0", allocs)
	}
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !buf.parseCanonical() {
			b.Fatal("not decoded as canonical")
		}
	}
}
