package httpapi

// The classify wire codec behind POST /v1/endpoints/{name}/classify. A
// request's body, its decoded features and its reply all live in one
// pooled classifyBuf, and the canonical document {"features":[[n,…],…]}
// is decoded in a single pass with no reflection. Any other document — unknown, duplicate or
// case-variant keys, null, trailing data, out-of-range numbers,
// malformed input — is handed, same bytes, to encoding/json, so what is
// accepted, what it decodes to and what is refused are encoding/json's
// by construction (FuzzClassifyDecode checks the fast path against it).

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"net/http"
	"strconv"
	"sync"

	homunculus "repro"
)

const (
	// maxClassifyBody caps a classify request body, checked against
	// Content-Length before anything is allocated and against the bytes
	// actually read. At ~20 bytes a feature it admits batches of several
	// hundred thousand features, three orders above the serving batch.
	maxClassifyBody = 8 << 20
	// maxPooledBytes is the largest backing array a classifyBuf may carry
	// back into the pool; a buffer one huge request grew is left to the
	// collector instead of staying resident.
	maxPooledBytes = 1 << 20
)

// ClassifyRequest is the POST …/classify body: a batch of feature
// vectors.
type ClassifyRequest struct {
	Features [][]float64 `json:"features"`
}

// ClassifyResponse reports per-vector classes (-1 for shed or failed
// requests) plus the shed count — partial shedding under backpressure is
// an expected outcome, not an HTTP error.
type ClassifyResponse struct {
	Classes []int  `json:"classes"`
	Dropped int    `json:"dropped"`
	Error   string `json:"error,omitempty"`
}

// errBodyTooLarge is the 413 of both classify routes.
var errBodyTooLarge = fmt.Errorf("request body exceeds %d bytes", maxClassifyBody)

// classifyBuf is the scratch memory of one classify request. It may be
// reused the moment the handler returns because nothing downstream keeps
// a feature slice: serve.Runtime.ClassifyBatch classifies the rows where
// they lie — flat is the one buffer between the socket and the batch
// kernel — and has delivered every one when it returns, and
// serve.Endpoint's shadow mirror copies what it re-scores later.
type classifyBuf struct {
	body bytes.Buffer // the request document, then scratch for the reply
	flat []float64    // every feature of the batch, row after row
	rows [][]float64  // the batch: one header per row, sliced out of flat
}

var classifyBufs = sync.Pool{New: func() any { return new(classifyBuf) }}

func (b *classifyBuf) release() {
	const floatBytes, headerBytes = 8, 24
	if b.body.Cap() > maxPooledBytes || cap(b.flat)*floatBytes > maxPooledBytes || cap(b.rows)*headerBytes > maxPooledBytes {
		return
	}
	classifyBufs.Put(b)
}

// readBody reads the whole request body into b.body, presized from
// Content-Length, and fails with errBodyTooLarge past maxClassifyBody.
func (b *classifyBuf) readBody(r *http.Request) error {
	if r.ContentLength > maxClassifyBody {
		return errBodyTooLarge
	}
	b.body.Reset()
	// ReadFrom wants MinRead spare bytes before every read, the one that
	// reports EOF included.
	b.body.Grow(int(max(r.ContentLength, 0)) + bytes.MinRead)
	if _, err := b.body.ReadFrom(io.LimitReader(r.Body, maxClassifyBody+1)); err != nil {
		return fmt.Errorf("read body: %w", err)
	}
	if b.body.Len() > maxClassifyBody {
		return errBodyTooLarge
	}
	return nil
}

// decode returns the batch in b.body: through the single-pass parser
// when the document is canonical, through encoding/json otherwise.
func (b *classifyBuf) decode() ([][]float64, error) {
	if b.parseCanonical() {
		return b.rows, nil
	}
	var req ClassifyRequest
	if err := json.NewDecoder(bytes.NewReader(b.body.Bytes())).Decode(&req); err != nil {
		return nil, err
	}
	return req.Features, nil
}

// parseCanonical decodes b.body into b.flat and b.rows when it is
// exactly {"features":[[n,…],…]} — that key once, numbers in the strict
// JSON grammar and in float64 range, JSON whitespace anywhere, nothing
// after the closing brace — and reports false, for the caller to fall
// back, on anything else.
func (b *classifyBuf) parseCanonical() bool {
	const key = `"features"`
	b.flat, b.rows = b.flat[:0], b.rows[:0]
	s := b.body.Bytes()
	i := skipSpace(s, 0)
	if at(s, i) != '{' {
		return false
	}
	i = skipSpace(s, i+1)
	if !bytes.HasPrefix(s[i:], []byte(key)) {
		return false
	}
	i = skipSpace(s, i+len(key))
	if at(s, i) != ':' {
		return false
	}
	i = skipSpace(s, i+1)
	if at(s, i) != '[' {
		return false
	}
	i = skipSpace(s, i+1)
	for moreRows := at(s, i) != ']'; moreRows; {
		if at(s, i) != '[' {
			return false
		}
		start := len(b.flat)
		i = skipSpace(s, i+1)
		for moreNums := at(s, i) != ']'; moreNums; {
			v, end, leg := parseNumber(s, i)
			if leg == noNumber {
				return false
			}
			b.flat = append(b.flat, v)
			if i, moreNums = nextElement(s, end); i < 0 {
				return false
			}
		}
		// A provisional header: flat may still move as it grows.
		b.rows = append(b.rows, b.flat[start:])
		if i, moreRows = nextElement(s, i+1); i < 0 {
			return false
		}
	}
	i = skipSpace(s, i+1)
	if at(s, i) != '}' || skipSpace(s, i+1) != len(s) {
		return false
	}
	off := 0
	for k, row := range b.rows {
		end := off + len(row)
		b.rows[k] = b.flat[off:end:end]
		off = end
	}
	return true
}

// nextElement steps over what may follow an array element at s[i:]: a
// comma (more is true, next is the following element) or the closing
// bracket (more is false, next is the bracket). next is -1 for anything
// else.
func nextElement(s []byte, i int) (next int, more bool) {
	i = skipSpace(s, i)
	switch at(s, i) {
	case ',':
		return skipSpace(s, i+1), true
	case ']':
		return i, false
	}
	return -1, false
}

// at is s[i], or 0 — a byte no token starts with — past the end.
func at(s []byte, i int) byte {
	if i < len(s) {
		return s[i]
	}
	return 0
}

func skipSpace(s []byte, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	return i
}

// numberLeg is how parseNumber converted a number. The product only asks
// whether there was one; the tests read the rest to pin which share of
// the traffic each leg takes.
type numberLeg uint8

const (
	noNumber   numberLeg = iota // no JSON number at s[i], or one out of float64 range
	legZero                     // mantissa 0: ±0 whatever the exponent
	legClinger                  // mantissa < 2^53, |exp10| ≤ 22: one float multiply or divide
	legDivide                   // mantissa ≥ 2^53, -19 ≤ exp10 < 0: one 128/64-bit divide
	legStrconv                  // everything else: strconv.ParseFloat on the same bytes
)

// pow10f[k] and pow10u[k] are 10^k: every power of ten a float64 holds
// exactly, and every one a uint64 holds.
var (
	pow10f = [23]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}
	pow10u = [20]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
		1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)

// parseNumber decodes the JSON number starting at s[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — to the float64
// strconv.ParseFloat makes of the same bytes, and returns where it ends.
// The scan collects the number as mant × 10^exp10 and the conversion is
// taken only down a leg that rounds once, from exact operands:
//
//   - Clinger: mant < 2^53 and 10^|exp10| ≤ 10^22 are both float64s, so
//     the one IEEE multiply or divide is the correctly rounded result.
//   - Divide: with both operands shifted to 64 bits, m·2^63/d is a 63- or
//     64-bit quotient — ten bits past a float64's 53 — and its remainder
//     says whether anything non-zero lies below them, which is all
//     round-to-nearest-even needs. The result is in (2^53/10^19, 10^19),
//     so the scaling by a power of two is exact.
//
// Whatever is outside them — more than 19 significant digits, other
// exponents, everything near overflow or the subnormals — goes to
// strconv, and a number strconv refuses is reported as no number.
func parseNumber(s []byte, i int) (v float64, end int, leg numberLeg) {
	start := i
	neg := at(s, i) == '-'
	if neg {
		i++
	}
	// mant wraps past 19 digits; digits, counted from the first non-zero
	// one, says when to disregard it.
	var mant uint64
	digits := 0
	switch c := at(s, i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		first := i
		mant, i = scanDigits(s, i, 0)
		digits = i - first
	default:
		return 0, 0, noNumber
	}
	exp10 := 0
	if at(s, i) == '.' {
		i++
		point := i
		if mant == 0 {
			// 0.000…: these zeros place the point and are not significant.
			for at(s, i) == '0' {
				i++
			}
		}
		first := i
		mant, i = scanDigits(s, i, mant)
		digits += i - first
		if i == point {
			return 0, 0, noNumber
		}
		exp10 = point - i
	}
	fits := digits <= 19 // mant × 10^exp10 is the number as written
	if c := at(s, i); c == 'e' || c == 'E' {
		i++
		sign := at(s, i)
		if sign == '+' || sign == '-' {
			i++
		}
		// Saturating: a hostile exponent must not wrap into range.
		const saturated = 100_000_000
		e, first := 0, i
		for ; i < len(s) && s[i]-'0' <= 9; i++ {
			if e < saturated {
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == first {
			return 0, 0, noNumber
		}
		fits = fits && e < saturated
		if sign == '-' {
			e = -e
		}
		exp10 += e
	}
	leg = legStrconv
	switch {
	case !fits:
	case mant == 0:
		v, leg = 0, legZero
	case mant < 1<<53 && 0 <= exp10 && exp10 <= 22:
		v, leg = float64(mant)*pow10f[exp10], legClinger
	case mant < 1<<53 && -22 <= exp10 && exp10 < 0:
		v, leg = float64(mant)/pow10f[-exp10], legClinger
	case mant >= 1<<53 && -19 <= exp10 && exp10 < 0:
		d := pow10u[-exp10]
		zm, zd := bits.LeadingZeros64(mant), bits.LeadingZeros64(d)
		m := mant << zm
		q, r := bits.Div64(m>>1, m<<63, d<<zd)
		if r != 0 {
			q |= 1 // sticky: below the bits the conversion rounds at
		}
		// uint64 → float64 rounds to nearest even; 2^(zd-zm-63) undoes the shifts.
		v, leg = float64(q)*math.Float64frombits(uint64(1023+zd-zm-63)<<52), legDivide
	}
	if leg == legStrconv {
		// No heap copy: the string does not escape ParseFloat, so up to
		// 32 bytes of it live in a stack temporary.
		f, err := strconv.ParseFloat(string(s[start:i]), 64)
		if err != nil {
			return 0, 0, noNumber
		}
		return f, i, legStrconv
	}
	if neg {
		v = -v
	}
	return v, i, leg
}

// scanDigits folds the run of ASCII digits at s[i:] into mant, eight at
// a time while eight are there, and returns where the run ends. mant
// wraps on overflow; the caller counts the digits.
func scanDigits(s []byte, i int, mant uint64) (uint64, int) {
	for i+8 <= len(s) {
		w := binary.LittleEndian.Uint64(s[i:])
		// Every byte is '0'..'9': its high nibble is 3, and still 3 after
		// adding 6 (no byte of 0x30..0x3f carries into its neighbour).
		const hi = 0xf0f0f0f0f0f0f0f0
		if w&hi|(w+0x0606060606060606)&hi>>4 != 0x3333333333333333 {
			break
		}
		// The first digit is the low byte. Pairs (≤ 99, a byte each), then
		// the four pairs weighted 10^6, 10^4, 10^2, 1 into the high word of
		// two multiplies whose low words (≤ 9900 + 99) cannot carry.
		w -= 0x3030303030303030
		w = w*10 + w>>8
		const pair = 0x000000ff000000ff
		w = ((w&pair)*(100+1000000<<32) + (w>>16&pair)*(1+10000<<32)) >> 32
		mant = mant*1e8 + w
		i += 8
	}
	for ; i < len(s) && s[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(s[i]-'0')
	}
	return mant, i
}

// classifyOn serves one classify request against a resolved endpoint —
// the whole of the classify route after its path lookup.
func classifyOn(w http.ResponseWriter, r *http.Request, e *homunculus.Endpoint) {
	b := classifyBufs.Get().(*classifyBuf)
	defer b.release()
	if err := b.readBody(r); err != nil {
		code := http.StatusBadRequest
		if errors.Is(err, errBodyTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, err)
		return
	}
	xs, err := b.decode()
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse request: %w", err))
		return
	}
	if len(xs) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request needs a features batch"))
		return
	}
	// A closed endpoint has no model; ClassifyBatch answers for it (409).
	if m := e.Model(); m != nil {
		for i, x := range xs {
			if len(x) != m.Inputs {
				writeError(w, http.StatusBadRequest, fmt.Errorf("features[%d] has %d values, endpoint %q expects %d per vector", i, len(x), e.Name(), m.Inputs))
				return
			}
		}
	}
	classes, dropped, err := e.ClassifyBatch(xs)
	b.writeResponse(w, classes, dropped, err)
}

// writeResponse maps a batch classify outcome to the wire: 409 when the
// target is draining, 429 with a Retry-After hint when the whole batch
// was shed (nothing admitted — back off), 200 otherwise. Partial
// shedding is a 200 with dropped > 0 and -1 placeholders — expected
// behaviour under load, not an error. The reply is rendered into b.body's
// array (the request document is spent by now), byte for byte what
// json.Encoder makes of a ClassifyResponse.
func (b *classifyBuf) writeResponse(w http.ResponseWriter, classes []int, dropped int, err error) {
	code := http.StatusOK
	switch {
	case errors.Is(err, homunculus.ErrEndpointClosed):
		code = http.StatusConflict
	case dropped == len(classes):
		writeRetryAfter(w)
		code = http.StatusTooManyRequests
	}
	if err != nil {
		writeJSON(w, code, ClassifyResponse{Classes: classes, Dropped: dropped, Error: err.Error()})
		return
	}
	b.body.Reset()
	out := append(b.body.AvailableBuffer(), `{"classes":[`...)
	for i, c := range classes {
		if i > 0 {
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, int64(c), 10)
	}
	out = append(out, `],"dropped":`...)
	out = strconv.AppendInt(out, int64(dropped), 10)
	out = append(out, "}\n"...)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(out) // the client is gone; nothing to report to
}
