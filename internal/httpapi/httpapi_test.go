package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/alchemy"

	homunculus "repro"
)

var registerTestLoaders sync.Once

// testRelease gates the "httpapi_block" loader so cancellation tests can
// hold a job in its load stage.
var (
	testRelease     = make(chan struct{})
	testReleaseOnce sync.Once
)

func tinyData() *alchemy.Data {
	d := &alchemy.Data{FeatureNames: []string{"fa", "fb"}}
	for i := 0; i < 120; i++ {
		c := i % 2
		d.TrainX = append(d.TrainX, []float64{float64(c)*2 + float64(i%5)*0.1, float64(1-c) + float64(i%3)*0.1})
		d.TrainY = append(d.TrainY, c)
	}
	for i := 0; i < 40; i++ {
		c := i % 2
		d.TestX = append(d.TestX, []float64{float64(c)*2 + float64(i%5)*0.1, float64(1-c) + float64(i%3)*0.1})
		d.TestY = append(d.TestY, c)
	}
	return d
}

func setupServer(t testing.TB, opts homunculus.ServiceOptions) (*httptest.Server, *homunculus.Service) {
	t.Helper()
	registerTestLoaders.Do(func() {
		alchemy.RegisterLoader("httpapi_tiny", alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
			return tinyData(), nil
		}))
		alchemy.RegisterLoader("httpapi_block", alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
			<-testRelease
			return tinyData(), nil
		}))
	})
	svc := homunculus.New(opts)
	srv := httptest.NewServer(NewServer(svc))
	t.Cleanup(func() {
		srv.Close()
		_ = svc.Close()
	})
	return srv, svc
}

func submitBody(dataset string) string {
	return fmt.Sprintf(`{
		"platform": {
			"kind": "taurus",
			"constraints": {"rows": 16, "cols": 16},
			"schedule": {"model": {"name": "tiny", "algorithms": ["dtree"], "dataset": %q}}
		},
		"search": {"init": 2, "iterations": 2, "seed": 1}
	}`, dataset)
}

func postJob(t testing.TB, srv *httptest.Server, body string) (JobJSON, *http.Response) {
	t.Helper()
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var job JobJSON
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
	}
	return job, resp
}

func pollDone(t testing.TB, srv *httptest.Server, id string) JobJSON {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var job JobJSON
		if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if job.State.Terminal() {
			return job
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal("job did not finish in time")
	return JobJSON{}
}

func TestHTTPSubmitPollResult(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job, resp := postJob(t, srv, submitBody("httpapi_tiny"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	if job.ID == "" || job.Platform != "taurus" {
		t.Fatalf("submit response: %+v", job)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+job.ID {
		t.Fatalf("Location %q", loc)
	}

	final := pollDone(t, srv, job.ID)
	if final.State != homunculus.JobDone {
		t.Fatalf("state %q (error %q)", final.State, final.Error)
	}
	if final.Result == nil || len(final.Result.Apps) != 1 {
		t.Fatalf("missing result: %+v", final)
	}
	app := final.Result.Apps[0]
	if app.Algorithm != "dtree" || !app.Feasible || app.Code != "" {
		t.Fatalf("app summary wrong (code must be excluded by default): %+v", app)
	}
	if final.Stages[homunculus.StageSearch].Done < 1 {
		t.Fatalf("stage progress missing: %+v", final.Stages)
	}

	// ?include=code returns the generated source.
	resp2, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "?include=code")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var withCode JobJSON
	if err := json.NewDecoder(resp2.Body).Decode(&withCode); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(withCode.Result.Apps[0].Code, "@spatial") {
		t.Fatal("included code must be the Spatial source")
	}

	// An identical resubmission resolves from the content-addressed
	// cache.
	job2, _ := postJob(t, srv, submitBody("httpapi_tiny"))
	final2 := pollDone(t, srv, job2.ID)
	if final2.State != homunculus.JobDone || !final2.CacheHit {
		t.Fatalf("identical resubmission must cache-hit: %+v", final2)
	}
	if final2.SpecHash != final.SpecHash {
		t.Fatalf("spec hashes differ: %q vs %q", final2.SpecHash, final.SpecHash)
	}

	// The jobs listing shows both, admission order.
	resp3, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var all []JobJSON
	if err := json.NewDecoder(resp3.Body).Decode(&all); err != nil {
		t.Fatal(err)
	}
	if len(all) != 2 || all[0].ID != job.ID || all[1].ID != job2.ID {
		t.Fatalf("job listing wrong: %+v", all)
	}
}

func TestHTTPUnknownDatasetRejected(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{})
	_, resp := postJob(t, srv, submitBody("httpapi_no_such_ds"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{})
	for label, body := range map[string]string{
		"not json":    `{`,
		"no platform": `{"search": {}}`,
		"bad kind":    `{"platform": {"kind": "abacus", "schedule": {"model": {"name": "x", "dataset": "httpapi_tiny"}}}}`,
		"bad algo":    `{"platform": {"kind": "taurus", "schedule": {"model": {"name": "x", "algorithms": ["bogus"], "dataset": "httpapi_tiny"}}}}`,
	} {
		_, resp := postJob(t, srv, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", label, resp.StatusCode)
		}
	}
	resp, err := http.Get(srv.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job status %d, want 404", resp.StatusCode)
	}
}

// TestHTTPSubmitWireStrict: POST /v1/jobs has no lax way in. A misspelled
// section or knob is a 400 naming it (not a 202 at the default budget),
// an unknown algorithm a 400 listing the accepted names, a body past the
// cap a 413 — and nothing is admitted either way. A delegated submission
// is still accepted as before.
func TestHTTPSubmitWireStrict(t *testing.T) {
	srv, svc := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	model := `"schedule": {"model": {"name": "tiny", "algorithms": ["dtree"], "dataset": "httpapi_tiny"}}`
	for _, tc := range []struct {
		body, want string
		status     int
	}{
		{`{"platform": {"kind": "taurus", ` + model + `}, "serach": {"init": 2}}`, `unknown field \"serach\"`, 400},
		{`{"platform": {"kind": "taurus", ` + model + `}, "search": {"max_neuron": 4}}`, `unknown field \"max_neuron\"`, 400},
		{`{"platform": {"kind": "taurus", "rows": 4, ` + model + `}}`, `unknown field \"rows\"`, 400},
		{`{"platform": {"kind": "taurus", "schedule": {"model": {"name": "tiny", "algorithm": "dtree", "dataset": "httpapi_tiny"}}}}`, `unknown field \"algorithm\"`, 400},
		{`{"platform": {"kind": "taurus", "schedule": {"model": {"name": "tiny", "algorithms": ["bogus"], "dataset": "httpapi_tiny"}}}}`, `accepted: [dnn svm kmeans dtree]`, 400},
		{`{"platform": {"kind": "taurus", ` + model + `}, "pad": "` + strings.Repeat("x", MaxRequestBody) + `"}`, `request body too large`, 413},
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status || !strings.Contains(string(raw), tc.want) {
			t.Fatalf("POST %.120s: status %d %s, want %d containing %q", tc.body, resp.StatusCode, raw, tc.status, tc.want)
		}
	}
	if jobs := svc.Jobs(); len(jobs) != 0 {
		t.Fatalf("refused submissions must admit nothing, got %d jobs", len(jobs))
	}
	// Both tune routes read their body through decodeTuneRequest, under
	// the same cap.
	resp, err := http.Post(srv.URL+"/v1/jobs/job-000001/tune", "application/json",
		strings.NewReader(`{"slo": "`+strings.Repeat("x", MaxRequestBody)+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize tune body: status %d, want 413", resp.StatusCode)
	}
	var req SubmitRequest
	if err := json.Unmarshal([]byte(submitBody("httpapi_tiny")), &req); err != nil {
		t.Fatal(err)
	}
	req.Delegated = true
	if resp, body := postJSON(t, srv.URL+"/v1/jobs", req); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("delegated submission: status %d %s", resp.StatusCode, body)
	}
}

func TestHTTPCancel(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 1, CacheEntries: -1})
	job, resp := postJob(t, srv, submitBody("httpapi_block"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+job.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}
	// Unblock the load: the cancelled context aborts the pipeline at the
	// next stage boundary (loads themselves are arbitrary user code and
	// cannot be interrupted).
	testReleaseOnce.Do(func() { close(testRelease) })
	final := pollDone(t, srv, job.ID)
	if final.State != homunculus.JobCancelled {
		t.Fatalf("state %q, want cancelled", final.State)
	}
}

func TestHTTPEventsSSE(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job, _ := postJob(t, srv, submitBody("httpapi_tiny"))
	pollDone(t, srv, job.ID)

	// Subscribing after completion replays the log and terminates.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + job.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: progress") || !strings.Contains(text, `"stage":"search"`) {
		t.Fatalf("stream missing progress events:\n%s", text)
	}
	if !strings.Contains(text, "event: state") || !strings.Contains(text, `"state":"done"`) {
		t.Fatalf("stream missing terminal state:\n%s", text)
	}
	if !strings.Contains(text, `"platform":"taurus"`) {
		t.Fatalf("stream events must carry the platform:\n%s", text)
	}
}

func TestHTTPBackends(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{})
	resp, err := http.Get(srv.URL + "/v1/backends")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var backends []BackendJSON
	if err := json.NewDecoder(resp.Body).Decode(&backends); err != nil {
		t.Fatal(err)
	}
	byKind := map[string]BackendJSON{}
	for _, b := range backends {
		byKind[b.Kind] = b
	}
	for _, kind := range []string{"taurus", "tofino", "fpga"} {
		if _, ok := byKind[kind]; !ok {
			t.Fatalf("backend %s missing from %+v", kind, backends)
		}
	}
	if byKind["taurus"].Defaults.Rows != 16 || byKind["taurus"].CodeExt != ".spatial" {
		t.Fatalf("taurus registration wrong: %+v", byKind["taurus"])
	}
}

// TestHTTPJobValidation: a submission with "validate": true carries the
// translation-validation verdict on the finished job document, and the
// same spec without the flag does not — the two resolve to distinct
// cache entries.
func TestHTTPJobValidation(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})

	plain, resp := postJob(t, srv, submitBody("httpapi_tiny"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	done := pollDone(t, srv, plain.ID)
	if done.State != homunculus.JobDone || done.Result.Apps[0].Validation != nil {
		t.Fatalf("unvalidated job: state %q validation %+v", done.State, done.Result.Apps[0].Validation)
	}

	body := strings.Replace(submitBody("httpapi_tiny"), `"search":`, `"validate": true, "search":`, 1)
	checked, resp := postJob(t, srv, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST validate status %d", resp.StatusCode)
	}
	vdone := pollDone(t, srv, checked.ID)
	v := vdone.Result.Apps[0].Validation
	if vdone.State != homunculus.JobDone || v == nil || !v.OK || v.Inputs == 0 || len(v.Evaluators) == 0 {
		t.Fatalf("validated job: state %q validation %+v", vdone.State, v)
	}
}
