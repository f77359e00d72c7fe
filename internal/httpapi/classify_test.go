package httpapi

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	homunculus "repro"
)

// classifySeeds is the checked-in corpus of FuzzClassifyDecode: every
// shape the single-pass parser must either decode exactly as
// encoding/json does or hand over to it.
var classifySeeds = []string{
	`{"features":[[0.1,1.0],[2.0,0.1]]}`,
	"{\"features\":[[0.1,1],[2,0.1]]}\n",
	" \t\r\n{ \"features\" \n:\t[ [ 0.1 , 1 ] ,\r\n[ 2 , 0.1 ] ] } \n",
	`{"features":[[1e3,1E3],[1e+3,1E-3]]}`,
	`{"features":[[1.5e3,0.5E+2],[0e0,12.25e-1]]}`,
	`{"features":[[-0,0],[-0.0,-1]]}`,
	`{"features":[[1e999,0]]}`,
	`{"features":[[-1e999,0]]}`,
	`{"features":[[1e-999,4.9e-324]]}`,
	`{"features":[[01,0]]}`,
	`{"features":[[1,]]}`,
	`{"features":[[1,2],]}`,
	`{"features":[[1.,2]]}`,
	`{"features":[[.5,2]]}`,
	`{"features":[[1e,2]]}`,
	`{"features":[[+1,2]]}`,
	`{"features":[[-,2]]}`,
	`{"features":[[0x10,2]]}`,
	`{"features":[[1_0,2]]}`,
	`{"features":[[NaN,Infinity]]}`,
	`{"features":[["1",2]]}`,
	`{"features":[[true,2]]}`,
	`{"features":[[1,2]],"features":[[3,4]]}`,
	`{"Features":[[1,2]]}`,
	`{"FEATURES":[[1,2]]}`,
	`{"\u0066eatures":[[1,2]]}`,
	`{"features":[[1,2]],"model":"x"}`,
	`{"model":"x","features":[[1,2]]}`,
	`{"features":[[1,2]]} trailing`,
	`{"features":[[1,2]]}{"features":[[3,4]]}`,
	`{"features":[[1,2]]}]`,
	`{"features":null}`,
	`{"features":[null,[1,2]]}`,
	`{"features":[[null,2]]}`,
	`null`,
	`{}`,
	``,
	`{"features":[[],[]]}`,
	`{"features":[[1,2],[]]}`,
	`{"features":[]}`,
	`{"features":[ ]}`,
	`{"features":[[1,2]`,
	`{"features":[[1,2]]`,
	`{"features":[1,2]}`,
	`{"features":[[[1,2]]]}`,
	`{"features":{"a":1}}`,
	`[[1,2]]`,
	`{"features" [[1,2]]}`,
	`{"features":[[1 2]]}`,
	`{"features":[[1,2][3,4]]}`,
	`{"features":[[123456789012345678901234567890,0.1234567890123456789012345678901234567890]]}`,
	// parseNumber's legs and their edges: hostile exponents (refused or
	// flushed by strconv, never wrapped), leading fractional zeros outside
	// the 19-digit budget, signed zeros, a number that ends the buffer.
	`{"features":[[1e99999999999999999999,0]]}`,
	`{"features":[[1e-99999999999999999999,-1e-99999999999999999999]]}`,
	`{"features":[[0.0000000000000000000000000000000000000000123,0.000000000000000000001234567890123456789]]}`,
	`{"features":[[-0,-0.0],[-0e5,0e99999999999999999999]]}`,
	`{"features":[[0.12345678`,
	`{"features":[[9007199254740993,9007199254740992.5],[9007199254740993.0,4503599627370496.5]]}`,
	`{"features":[[0.3000000000000000,0.30000000000000000,0.3000000000000000000,0.3000000000000000000000000]]}`,
	`{"features":[[0.1000000000000000,0.10000000000000001,0.1000000000000000055,0.1000000000000000055511151]]}`,
	`{"features":[[0.7000000000000000,0.69999999999999996,0.6999999999999999556,0.6999999999999999555910790]]}`,
	`{"features":[[1.7976931348623157e308,2.2250738585072011e-308],[4.9e-324,123456789012345678e-18]]}`,
	`{"features":[[12345678901234567e-19,12345678901234567e-20],[12345678901234567e1,0.8414709848078965]]}`,
}

// sameRows fails unless got and want hold the same floats bit for bit.
func sameRows(t testing.TB, doc []byte, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%q: %d rows, encoding/json has %d", doc, len(got), len(want))
	}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%q: row %d has %d values, encoding/json has %d", doc, i, len(got[i]), len(want[i]))
		}
		for j := range want[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%q: [%d][%d] = %v, encoding/json has %v", doc, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// classifyFixture compiles the tiny spec and serves it as endpoint name,
// with an identical shadow revision live if asked.
func classifyFixture(t testing.TB, name string, shadow bool) (*httptest.Server, *homunculus.Endpoint) {
	t.Helper()
	srv, svc := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)
	if resp, body := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: name, JobID: job.ID}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	if shadow {
		if resp, body := postJSON(t, srv.URL+"/v1/endpoints/"+name+"/rollout", RolloutRequest{JobID: job.ID, Shadow: true}); resp.StatusCode != http.StatusOK {
			t.Fatalf("shadow rollout status %d: %s", resp.StatusCode, body)
		}
	}
	ep, ok := svc.Endpoint(name)
	if !ok {
		t.Fatalf("endpoint %q missing", name)
	}
	return srv, ep
}

// FuzzClassifyDecode differentially checks the classify codec against
// encoding/json on arbitrary bytes: the single-pass parser may accept
// only what encoding/json accepts and must decode it to the same bits,
// the codec as a whole accepts and refuses the same documents, and the
// handler answers with the status the encoding/json handler would.
func FuzzClassifyDecode(f *testing.F) {
	for _, doc := range classifySeeds {
		f.Add([]byte(doc))
	}
	srv, ep := classifyFixture(f, "fuzz", false)
	inputs := ep.Model().Inputs
	handler := srv.Config.Handler
	f.Fuzz(func(t *testing.T, doc []byte) {
		var want ClassifyRequest
		wantErr := json.NewDecoder(bytes.NewReader(doc)).Decode(&want)

		b := new(classifyBuf)
		b.body.Write(doc)
		if b.parseCanonical() {
			if wantErr != nil {
				t.Fatalf("%q: parsed as canonical, encoding/json refuses it: %v", doc, wantErr)
			}
			sameRows(t, doc, b.rows, want.Features)
		}
		got, err := b.decode()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%q: codec error %v, encoding/json error %v", doc, err, wantErr)
		}
		if err == nil {
			sameRows(t, doc, got, want.Features)
		}

		wantCode := http.StatusOK
		if wantErr != nil || len(want.Features) == 0 {
			wantCode = http.StatusBadRequest
		}
		for _, x := range want.Features {
			if len(x) != inputs {
				wantCode = http.StatusBadRequest
			}
		}
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/endpoints/fuzz/classify", bytes.NewReader(doc)))
		if rec.Code != wantCode {
			t.Fatalf("%q: status %d, want %d: %s", doc, rec.Code, wantCode, rec.Body)
		}
	})
}

// TestClassifyReplyBytes pins the hand-rendered reply to json.Encoder's
// rendering of a ClassifyResponse.
func TestClassifyReplyBytes(t *testing.T) {
	for _, classes := range [][]int{{}, {0}, {3, -1, 12, 0}} {
		for _, dropped := range []int{0, 1} {
			rec := httptest.NewRecorder()
			new(classifyBuf).writeResponse(rec, classes, dropped, nil)
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(ClassifyResponse{Classes: classes, Dropped: dropped}); err != nil {
				t.Fatal(err)
			}
			if rec.Body.String() != want.String() || rec.Header().Get("Content-Type") != "application/json" {
				t.Fatalf("reply %q (%s), json.Encoder writes %q", rec.Body, rec.Header().Get("Content-Type"), &want)
			}
		}
	}
}

// TestClassifyBodyCap: a body past maxClassifyBody is a 413 whether
// Content-Length announces it or the bytes only turn up on the wire, and
// a buffer that a large (accepted) request grew does not go back into
// the pool.
func TestClassifyBodyCap(t *testing.T) {
	srv, _ := classifyFixture(t, "capped", false)
	big := append([]byte(`{"features":[[1,2]]}`), bytes.Repeat([]byte(" "), maxClassifyBody)...)
	post := func(body io.Reader) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/endpoints/capped/classify", body))
		return rec
	}
	for name, body := range map[string]io.Reader{
		"announced":   bytes.NewReader(big),
		"unannounced": io.MultiReader(bytes.NewReader(big)), // hides the length: Content-Length -1
	} {
		rec := post(body)
		var e errorJSON
		if rec.Code != http.StatusRequestEntityTooLarge || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
			t.Fatalf("%s: status %d body %q, want 413 with an error document", name, rec.Code, rec.Body)
		}
	}
	if rec := post(bytes.NewReader(big[:maxClassifyBody])); rec.Code != http.StatusOK {
		t.Fatalf("body of exactly the cap: status %d: %s", rec.Code, rec.Body)
	}

	b := new(classifyBuf)
	b.body.Grow(maxPooledBytes + 1)
	b.release()
	if classifyBufs.Get() == any(b) {
		t.Fatalf("pool kept a %d-byte buffer", b.body.Cap())
	}
}

// TestClassifyPooledBuffersDoNotAlias posts distinct batches from many
// goroutines at an endpoint with a shadow revision live and checks every
// reply against Model.InferQ. Under -race a feature slice kept past its
// request — by the ring or by a mirror — collides with the next request
// decoding into the same pooled buffer.
func TestClassifyPooledBuffersDoNotAlias(t *testing.T) {
	srv, ep := classifyFixture(t, "pooled", true)
	model := ep.Model()
	const clients, requests = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for k := 0; k < requests; k++ {
				xs := make([][]float64, 1+rng.Intn(16))
				for i := range xs {
					xs[i] = []float64{rng.Float64() * 3, rng.Float64() * 2}
				}
				resp, body := postJSON(t, srv.URL+"/v1/endpoints/pooled/classify", ClassifyRequest{Features: xs})
				var got ClassifyResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil || len(got.Classes) != len(xs) {
					t.Errorf("client %d request %d: status %d body %s", c, k, resp.StatusCode, body)
					return
				}
				for i, x := range xs {
					if want, err := model.InferQ(x); err != nil || got.Classes[i] != want {
						t.Errorf("client %d request %d: class[%d] = %d, InferQ(%v) = %d, %v", c, k, i, got.Classes[i], x, want, err)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// benchmarkClassifyHandler drives the classify route in-process with one
// request document of n vectors.
func benchmarkClassifyHandler(b *testing.B, n int) {
	srv, _ := classifyFixture(b, "bench", false)
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64() * 3, rng.Float64() * 2}
	}
	doc, err := json.Marshal(ClassifyRequest{Features: xs})
	if err != nil {
		b.Fatal(err)
	}
	handler := srv.Config.Handler
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/endpoints/bench/classify", bytes.NewReader(doc)))
		return rec
	}
	if rec := post(); rec.Code != http.StatusOK || strings.Count(rec.Body.String(), ",") != n {
		b.Fatalf("status %d body %s", rec.Code, rec.Body)
	}
	if !testing.Short() {
		// The pooled wire codec allocates nothing per row: 23 measured, 15
		// of them the httptest request + recorder + mux match. A steady-
		// state figure — the first request above filled the buffer pool.
		if allocs := testing.AllocsPerRun(200, func() { post() }); allocs > 40 {
			b.Fatalf("classify of %d vectors allocated %.0f times per request, budget 40", n, allocs)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
}

func BenchmarkClassifyHandlerSingle(b *testing.B)   { benchmarkClassifyHandler(b, 1) }
func BenchmarkClassifyHandlerBatch256(b *testing.B) { benchmarkClassifyHandler(b, 256) }
