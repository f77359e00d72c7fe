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
	"encoding/json"
	"errors"
	"fmt"
	"io"
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
			end := scanNumber(s, i)
			if end < 0 {
				return false
			}
			// No heap copy: the string does not escape ParseFloat, so
			// up to 32 bytes of it live in a stack temporary.
			v, err := strconv.ParseFloat(string(s[i:end]), 64)
			if err != nil {
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

func skipDigits(s []byte, i int) int {
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	return i
}

// scanNumber returns the end of the JSON number starting at s[i] —
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? — or -1 if none does.
func scanNumber(s []byte, i int) int {
	if at(s, i) == '-' {
		i++
	}
	switch c := at(s, i); {
	case c == '0':
		i++
	case '1' <= c && c <= '9':
		i = skipDigits(s, i+1)
	default:
		return -1
	}
	if at(s, i) == '.' {
		end := skipDigits(s, i+1)
		if end == i+1 {
			return -1
		}
		i = end
	}
	if c := at(s, i); c == 'e' || c == 'E' {
		i++
		if c := at(s, i); c == '+' || c == '-' {
			i++
		}
		end := skipDigits(s, i)
		if end == i {
			return -1
		}
		i = end
	}
	return i
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
