package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/alchemy"

	homunculus "repro"
)

// blockingLoader registers a loader that blocks until release is called,
// under a name of its own on every call: a test run twice in one process
// (-count=2) gets a fresh gate, and releasing one test's gate cannot
// interfere with another's or with httpapi_test.go's cancellation gate.
func blockingLoader(prefix string) (name string, release func()) {
	name = fmt.Sprintf("%s_%d", prefix, blockingLoaders.Add(1))
	gate := make(chan struct{})
	alchemy.RegisterLoader(name, alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
		<-gate
		return tinyData(), nil
	}))
	var once sync.Once
	return name, func() { once.Do(func() { close(gate) }) }
}

var blockingLoaders atomic.Int64

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func doDelete(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func httpGet(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

// compileDone submits the tiny spec and polls the job to done.
func compileDone(t testing.TB, srv *httptest.Server) JobJSON {
	t.Helper()
	job, resp := postJob(t, srv, submitBody("httpapi_tiny"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs status %d", resp.StatusCode)
	}
	final := pollDone(t, srv, job.ID)
	if final.State != homunculus.JobDone {
		t.Fatalf("job state %q (%s)", final.State, final.Error)
	}
	return final
}

// TestHTTPEndpointLifecycle is the versioned-serving acceptance path:
// compile two jobs, create a named endpoint from the first, classify,
// roll the second out at 50% canary, see both revisions serving in the
// stats, promote, roll back, and DELETE-drain.
func TestHTTPEndpointLifecycle(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job1 := compileDone(t, srv)
	// A second, distinct compilation (different seed) to roll out.
	job2body := `{
		"platform": {
			"kind": "taurus",
			"constraints": {"rows": 16, "cols": 16},
			"schedule": {"model": {"name": "tiny", "algorithms": ["dtree"], "dataset": "httpapi_tiny"}}
		},
		"search": {"init": 2, "iterations": 2, "seed": 7}
	}`
	job2, resp := postJob(t, srv, job2body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status %d", resp.StatusCode)
	}
	if final := pollDone(t, srv, job2.ID); final.State != homunculus.JobDone {
		t.Fatalf("second job state %q (%s)", final.State, final.Error)
	}

	resp, body := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{
		Name: "anomaly-detection", JobID: job1.ID, Serving: homunculus.ServingConfig{BatchSize: 8},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	var ep EndpointJSON
	if err := json.Unmarshal(body, &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Name != "anomaly-detection" || ep.Stable != 1 || ep.Algorithm != "dtree" || len(ep.Revisions) != 1 {
		t.Fatalf("endpoint document: %+v", ep)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/endpoints/anomaly-detection" {
		t.Fatalf("Location %q", loc)
	}

	// Listing and info.
	lresp, lbody := httpGet(t, srv.URL+"/v1/endpoints")
	var all []EndpointJSON
	if err := json.Unmarshal(lbody, &all); err != nil {
		t.Fatal(err)
	}
	if lresp.StatusCode != http.StatusOK || len(all) != 1 || all[0].Name != ep.Name {
		t.Fatalf("listing: %d %s", lresp.StatusCode, lbody)
	}

	// Classify through the named route.
	batch := ClassifyRequest{Features: [][]float64{{0.1, 1.0}, {2.0, 0.1}, {0.2, 1.1}, {2.1, 0.0}}}
	cresp, cbody := postJSON(t, srv.URL+"/v1/endpoints/anomaly-detection/classify", batch)
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("classify status %d: %s", cresp.StatusCode, cbody)
	}
	var cls ClassifyResponse
	if err := json.Unmarshal(cbody, &cls); err != nil {
		t.Fatal(err)
	}
	if len(cls.Classes) != 4 || cls.Dropped != 0 || cls.Error != "" {
		t.Fatalf("classify response: %+v", cls)
	}
	for i, c := range cls.Classes {
		if c < 0 || c > 1 {
			t.Fatalf("class %d out of range in %+v", i, cls)
		}
	}

	// Stats must account for at least the classified batch with a
	// nonzero latency tail.
	sresp, sbody := httpGet(t, srv.URL+"/v1/endpoints/anomaly-detection/stats")
	var st EndpointStatsJSON
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK || st.Merged.Completed < 4 || st.Merged.P99NS == 0 {
		t.Fatalf("stats: %d %s", sresp.StatusCode, sbody)
	}
	if st.Merged.PerClass[0]+st.Merged.PerClass[1] != st.Merged.Completed {
		t.Fatalf("per-class counts must partition completions: %s", sbody)
	}

	// Roll out job2 at 50% canary and push enough traffic that both
	// revisions serve.
	rresp, rbody := postJSON(t, srv.URL+"/v1/endpoints/anomaly-detection/rollout",
		RolloutRequest{JobID: job2.ID, CanaryPercent: 50})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("rollout status %d: %s", rresp.StatusCode, rbody)
	}
	var rolled EndpointJSON
	if err := json.Unmarshal(rbody, &rolled); err != nil {
		t.Fatal(err)
	}
	if rolled.Canary != 2 || rolled.CanaryPercent != 50 || len(rolled.Revisions) != 2 {
		t.Fatalf("rollout document: %+v", rolled)
	}
	// Overlapping rollout conflicts.
	oresp, _ := postJSON(t, srv.URL+"/v1/endpoints/anomaly-detection/rollout",
		RolloutRequest{JobID: job1.ID})
	if oresp.StatusCode != http.StatusConflict {
		t.Fatalf("overlapping rollout status %d", oresp.StatusCode)
	}
	for i := 0; i < 16; i++ {
		cresp, _ = postJSON(t, srv.URL+"/v1/endpoints/anomaly-detection/classify", batch)
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("canary classify status %d", cresp.StatusCode)
		}
	}
	sresp, sbody = httpGet(t, srv.URL+"/v1/endpoints/anomaly-detection/stats")
	st = EndpointStatsJSON{}
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK || len(st.Revisions) != 2 {
		t.Fatalf("stats: %d %s", sresp.StatusCode, sbody)
	}
	if st.Revisions[0].Stats.Completed == 0 || st.Revisions[1].Stats.Completed == 0 {
		t.Fatalf("both revisions must serve at 50%% canary: %s", sbody)
	}
	if st.Merged.Completed != st.Revisions[0].Stats.Completed+st.Revisions[1].Stats.Completed {
		t.Fatalf("merged must sum revisions: %s", sbody)
	}
	if st.Revisions[1].JobID != job2.ID {
		t.Fatalf("revision 2 provenance: %s", sbody)
	}

	// Promote, verify the view, then roll back to revision 1.
	presp, pbody := postJSON(t, srv.URL+"/v1/endpoints/anomaly-detection/promote", struct{}{})
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d: %s", presp.StatusCode, pbody)
	}
	var promoted EndpointJSON
	if err := json.Unmarshal(pbody, &promoted); err != nil {
		t.Fatal(err)
	}
	if promoted.Stable != 2 || promoted.Canary != 0 {
		t.Fatalf("promoted document: %+v", promoted)
	}
	// Promote again without a rollout conflicts.
	presp, _ = postJSON(t, srv.URL+"/v1/endpoints/anomaly-detection/promote", struct{}{})
	if presp.StatusCode != http.StatusConflict {
		t.Fatalf("double promote status %d", presp.StatusCode)
	}
	bresp, bbody := postJSON(t, srv.URL+"/v1/endpoints/anomaly-detection/rollback", struct{}{})
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("rollback status %d: %s", bresp.StatusCode, bbody)
	}
	var back EndpointJSON
	if err := json.Unmarshal(bbody, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stable != 1 {
		t.Fatalf("rollback document: %+v", back)
	}

	// DELETE drains and reports final lifetime totals; the route is gone.
	dresp, dbody := doDelete(t, srv.URL+"/v1/endpoints/anomaly-detection")
	var final EndpointStatsJSON
	if err := json.Unmarshal(dbody, &final); err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK || final.Merged.Accepted != final.Merged.Completed || final.Merged.Completed < st.Merged.Completed {
		t.Fatalf("drain: %d %s", dresp.StatusCode, dbody)
	}
	gresp, _ := httpGet(t, srv.URL+"/v1/endpoints/anomaly-detection")
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted endpoint GET status %d", gresp.StatusCode)
	}
	cresp, _ = postJSON(t, srv.URL+"/v1/endpoints/anomaly-detection/classify", batch)
	if cresp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted endpoint classify status %d", cresp.StatusCode)
	}
}

// TestHTTPEndpointShadow drives a shadow rollout over the wire and reads
// the divergence report from the stats document.
func TestHTTPEndpointShadow(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)
	resp, body := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{
		Name: "shadowed", JobID: job.ID, Serving: homunculus.ServingConfig{MaxDelayNS: new(int64)},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	rresp, rbody := postJSON(t, srv.URL+"/v1/endpoints/shadowed/rollout",
		RolloutRequest{JobID: job.ID, Shadow: true})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("shadow rollout status %d: %s", rresp.StatusCode, rbody)
	}
	var rolled EndpointJSON
	if err := json.Unmarshal(rbody, &rolled); err != nil {
		t.Fatal(err)
	}
	if rolled.Shadow != 2 {
		t.Fatalf("shadow document: %+v", rolled)
	}
	batch := ClassifyRequest{Features: [][]float64{{0.1, 1.0}, {2.0, 0.1}}}
	for i := 0; i < 8; i++ {
		cresp, _ := postJSON(t, srv.URL+"/v1/endpoints/shadowed/classify", batch)
		if cresp.StatusCode != http.StatusOK {
			t.Fatalf("classify status %d", cresp.StatusCode)
		}
	}
	// The shadow is the same compiled pipeline, so mirrored scores agree;
	// mirrors are asynchronous, so poll for the report to fill.
	deadline := 200
	for ; deadline > 0; deadline-- {
		_, sbody := httpGet(t, srv.URL+"/v1/endpoints/shadowed/stats")
		var st EndpointStatsJSON
		if err := json.Unmarshal(sbody, &st); err != nil {
			t.Fatal(err)
		}
		if st.Shadow != nil && st.Shadow.Mirrored+st.Shadow.Shed == 16 {
			if st.Shadow.Revision != 2 || st.Shadow.Disagreed != 0 || st.Shadow.Agreed != st.Shadow.Mirrored {
				t.Fatalf("identical shadow must agree: %s", sbody)
			}
			return
		}
	}
	t.Fatal("shadow divergence report never filled")
}

func TestHTTPEndpointErrors(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)

	// Bad bodies and missing fields.
	for label, body := range map[string]string{
		"not json": `{`,
		"no name":  `{"job_id": "job-000001"}`,
		"no job":   `{"name": "x"}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/endpoints", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", label, resp.StatusCode)
		}
	}
	// Bad name, unknown job.
	resp, _ := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "bad name", JobID: job.ID})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad name status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "x", JobID: "job-999999"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown job status %d", resp.StatusCode)
	}
	// Duplicate name.
	resp, _ = postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "dup", JobID: job.ID})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d", resp.StatusCode)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "dup", JobID: job.ID})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate name status %d", resp.StatusCode)
	}
	// Unknown endpoint paths 404.
	for _, probe := range []func() (*http.Response, []byte){
		func() (*http.Response, []byte) { return httpGet(t, srv.URL+"/v1/endpoints/ghost") },
		func() (*http.Response, []byte) { return httpGet(t, srv.URL+"/v1/endpoints/ghost/stats") },
		func() (*http.Response, []byte) {
			return postJSON(t, srv.URL+"/v1/endpoints/ghost/promote", struct{}{})
		},
		func() (*http.Response, []byte) {
			return postJSON(t, srv.URL+"/v1/endpoints/ghost/rollback", struct{}{})
		},
		func() (*http.Response, []byte) { return doDelete(t, srv.URL+"/v1/endpoints/ghost") },
	} {
		if resp, _ := probe(); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("unknown endpoint probe status %d, want 404", resp.StatusCode)
		}
	}
	// Rollback with no history conflicts.
	resp, _ = postJSON(t, srv.URL+"/v1/endpoints/dup/rollback", struct{}{})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("rollback without history status %d", resp.StatusCode)
	}
	// Rollout needs a job_id.
	resp, _ = postJSON(t, srv.URL+"/v1/endpoints/dup/rollout", RolloutRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("rollout without job status %d", resp.StatusCode)
	}
	// Unknown app on a real job; an empty classify batch.
	resp, body := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "x", JobID: job.ID, App: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown app status %d: %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, srv.URL+"/v1/endpoints/dup/classify", ClassifyRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}

	// A job that has not finished yet conflicts.
	unfinished, release := blockingLoader("httpapi_unfinished_block")
	defer release()
	blocked, presp := postJob(t, srv, submitBody(unfinished))
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", presp.StatusCode)
	}
	resp, body = postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "early", JobID: blocked.ID})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished job status %d: %s", resp.StatusCode, body)
	}
	// Unblock and settle the job so service Close can drain.
	release()
	pollDone(t, srv, blocked.ID)
}

// TestHTTPServingWireStrict: the create and rollout bodies have one
// spelling of the serving knobs. A retired flat knob (or any unknown
// field) is a 400 naming it instead of a silently applied default, and
// an out-of-range value inside "serving" is a 400 carrying the accepted
// range — with no endpoint or revision created either way.
func TestHTTPServingWireStrict(t *testing.T) {
	srv, svc := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)
	if resp, body := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "live", JobID: job.ID}); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	wide := homunculus.ServingConfig{Shards: 300}
	for _, tc := range []struct{ field, want string }{
		{`"shards": 1000000000`, `unknown field \"shards\"`},
		{`"batch_size": 8`, `unknown field \"batch_size\"`},
		{`"max_delay_us": 1000`, `unknown field \"max_delay_us\"`},
		{`"queue_depth": 64`, `unknown field \"queue_depth\"`},
		{`"validate_rollouts": true`, `unknown field \"validate_rollouts\"`},
		{`"serving": {"batchsize": 8}`, `unknown field \"batchsize\"`},
		{`"serving": {"shards": 1000000000}`, "accepted [0, 256]"},
		{`"serving": {"shards": 300}`, wide.Validate().Error()},
	} {
		for route, ids := range map[string]string{
			"/v1/endpoints":              `"name": "strict", `,
			"/v1/endpoints/live/rollout": ``,
		} {
			body := fmt.Sprintf(`{%s"job_id": %q, %s}`, ids, job.ID, tc.field)
			resp, err := http.Post(srv.URL+route, "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			_, _ = buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(buf.String(), tc.want) {
				t.Fatalf("POST %s %s: status %d %s, want 400 containing %q", route, body, resp.StatusCode, buf.String(), tc.want)
			}
		}
	}
	// PUT …/config refuses the same value with the same text.
	presp, pbody := httpPut(t, srv.URL+"/v1/endpoints/live/config", []byte(`{"shards": 300}`))
	if presp.StatusCode != http.StatusBadRequest || !strings.Contains(string(pbody), wide.Validate().Error()) {
		t.Fatalf("PUT config shards 300: %d %s", presp.StatusCode, pbody)
	}
	if _, ok := svc.Endpoint("strict"); ok {
		t.Fatal("a refused create must not leave an endpoint behind")
	}
	live, _ := svc.Endpoint("live")
	if revs := live.Revisions(); len(revs) != 1 {
		t.Fatalf("a refused rollout must not add a revision: %+v", revs)
	}
}

// TestHTTPClassifyFeatureMismatch: a wrong-width or ragged batch is
// refused whole with a 400 naming the first offending row and the
// expected width, before anything is admitted.
func TestHTTPClassifyFeatureMismatch(t *testing.T) {
	srv, svc := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)
	resp, body := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "narrow", JobID: job.ID})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}
	for _, batch := range [][][]float64{{{0.1, 1.0}, {0.5}}, {{0.1, 1.0}, {0.5, 1, 2}}, {{0.1, 1.0}, {}}} {
		cresp, cbody := postJSON(t, srv.URL+"/v1/endpoints/narrow/classify", ClassifyRequest{Features: batch})
		if cresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%v: status %d: %s", batch, cresp.StatusCode, cbody)
		}
		want := fmt.Sprintf("features[1] has %d values", len(batch[1]))
		if !bytes.Contains(cbody, []byte(want)) || !bytes.Contains(cbody, []byte("expects 2")) {
			t.Fatalf("%v: error %s does not name the row and the width", batch, cbody)
		}
	}
	ep, _ := svc.Endpoint("narrow")
	if st := ep.Stats().Merged; st.Accepted != 0 || st.Errors != 0 {
		t.Fatalf("refused batches reached the runtime: %+v", st)
	}
}

// TestHTTPServingStatsJSONShape pins the stats wire format the CI daemon
// smoke greps for.
func TestHTTPServingStatsJSONShape(t *testing.T) {
	st := StatsJSON(homunculus.ServingStats{Accepted: 2, Completed: 2, PerClass: []uint64{1, 1}})
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"accepted"`, `"completed"`, `"dropped"`, `"p50_ns"`, `"p99_ns"`, `"throughput_rps"`, `"per_class"`} {
		if !bytes.Contains(raw, []byte(key)) {
			t.Fatalf("stats JSON missing %s: %s", key, raw)
		}
	}
}

// TestHTTPQueueFullRetryAfter pins the backpressure contract on the
// submission path: when the admission queue sheds, the 429 carries a
// Retry-After hint.
func TestHTTPQueueFullRetryAfter(t *testing.T) {
	blocking, release := blockingLoader("httpapi_ep_block")
	srv, _ := setupServer(t, homunculus.ServiceOptions{
		MaxInFlight: 1, QueueDepth: 1, CacheEntries: -1})
	defer release()

	// Job 1 occupies the single dispatch slot (blocked in load), job 2
	// fills the depth-1 backlog, job 3 must shed with 429 + Retry-After.
	j1, resp := postJob(t, srv, submitBody(blocking))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1 status %d", resp.StatusCode)
	}
	j2, resp := postJob(t, srv, submitBody(blocking))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2 status %d", resp.StatusCode)
	}
	_, resp = postJob(t, srv, submitBody(blocking))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3 status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("queue-full 429 Retry-After %q, want \"1\"", ra)
	}
	// Release and settle so Close can drain.
	release()
	pollDone(t, srv, j1.ID)
	pollDone(t, srv, j2.ID)
}

// TestClassifyShedRetryAfter pins the serving-side backpressure wire
// contract: a fully shed classify batch is a 429 with Retry-After, a
// partial shed is a 200, and a draining target is a 409 (no backoff
// hint — retrying a closed endpoint is pointless).
func TestClassifyShedRetryAfter(t *testing.T) {
	fullyShed := []int{-1, -1}
	rec := httptest.NewRecorder()
	new(classifyBuf).writeResponse(rec, fullyShed, 2, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("fully shed status %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Fatalf("classify-shed 429 Retry-After %q, want \"1\"", ra)
	}

	rec = httptest.NewRecorder()
	new(classifyBuf).writeResponse(rec, []int{1, -1}, 1, nil)
	if rec.Code != http.StatusOK || rec.Header().Get("Retry-After") != "" {
		t.Fatalf("partial shed: status %d Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}

	rec = httptest.NewRecorder()
	new(classifyBuf).writeResponse(rec, fullyShed, 2, homunculus.ErrEndpointClosed)
	if rec.Code != http.StatusConflict || rec.Header().Get("Retry-After") != "" {
		t.Fatalf("closed target: status %d Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}

	// writeError applies the hint to any 429 it renders.
	rec = httptest.NewRecorder()
	writeError(rec, http.StatusTooManyRequests, errors.New("shed"))
	if rec.Header().Get("Retry-After") != "1" {
		t.Fatal("writeError(429) must set Retry-After")
	}
	rec = httptest.NewRecorder()
	writeError(rec, http.StatusBadRequest, errors.New("nope"))
	if rec.Header().Get("Retry-After") != "" {
		t.Fatal("writeError(400) must not set Retry-After")
	}
}

// TestHTTPEndpointValidationGate: creating or rolling out on a
// validate_rollouts endpoint re-checks the shipped artifact, so a
// corrupted emitted program (an injected codegen bug) is refused with
// 409 at the HTTP layer.
func TestHTTPEndpointValidationGate(t *testing.T) {
	srv, svc := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)

	// The clean pipeline passes the gate and the flag lands on the doc.
	resp, body := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{
		Name: "gated", JobID: job.ID, Serving: homunculus.ServingConfig{ValidateRollouts: true},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("gated create status %d: %s", resp.StatusCode, body)
	}
	var ep EndpointJSON
	if err := json.Unmarshal(body, &ep); err != nil {
		t.Fatal(err)
	}
	if !ep.ValidateRollouts {
		t.Fatalf("endpoint document must carry validate_rollouts: %s", body)
	}

	// Inject the codegen bug: corrupt the job's shipped artifact text in
	// place (the cached pipeline is what any later create/rollout serves).
	j, ok := svc.Job(job.ID)
	if !ok {
		t.Fatal("job handle")
	}
	pipe, err := j.Result()
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for i := range pipe.Apps {
		if pipe.Apps[i].Code != "" {
			pipe.Apps[i].Code = pipe.Apps[i].Code[:len(pipe.Apps[i].Code)/3]
			corrupted = true
		}
	}
	if !corrupted {
		t.Fatal("pipeline ships no artifact to corrupt")
	}

	// Rollout of the now-corrupted artifact is refused with 409.
	rresp, rbody := postJSON(t, srv.URL+"/v1/endpoints/gated/rollout",
		RolloutRequest{JobID: job.ID, CanaryPercent: 50})
	if rresp.StatusCode != http.StatusConflict {
		t.Fatalf("corrupted rollout status %d: %s", rresp.StatusCode, rbody)
	}
	var failure errorJSON
	if err := json.Unmarshal(rbody, &failure); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(failure.Error, "validation failed") {
		t.Fatalf("rollout refusal must name validation: %s", rbody)
	}

	// Creating a fresh gated endpoint from the corrupted job is refused
	// the same way; an ungated one still works.
	cresp, _ := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{
		Name: "gated2", JobID: job.ID, Serving: homunculus.ServingConfig{ValidateRollouts: true},
	})
	if cresp.StatusCode != http.StatusConflict {
		t.Fatalf("corrupted gated create status %d", cresp.StatusCode)
	}
	uresp, _ := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{
		Name: "ungated", JobID: job.ID,
	})
	if uresp.StatusCode != http.StatusCreated {
		t.Fatalf("ungated create status %d", uresp.StatusCode)
	}
}
