package httpapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"repro/alchemy"

	homunculus "repro"
)

// deployTestLoaders registers a blocking loader private to this file so
// releasing it cannot interfere with httpapi_test.go's cancellation
// gate.
var (
	deployTestLoaders   sync.Once
	deployRelease       = make(chan struct{})
	deployReleaseOnce   sync.Once
	deployBlockDatasets = func() {
		deployTestLoaders.Do(func() {
			alchemy.RegisterLoader("httpapi_deploy_block", alchemy.DataLoaderFunc(func() (*alchemy.Data, error) {
				<-deployRelease
				return tinyData(), nil
			}))
		})
	}
)

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

// TestHTTPDeployLifecycle is the daemon acceptance path: compile, deploy,
// classify a batch, read stats (>= the request count, nonzero p99), then
// DELETE-drain.
func TestHTTPDeployLifecycle(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)

	resp, body := postJSON(t, srv.URL+"/v1/deployments", DeployRequest{
		JobID: job.ID, BatchSize: 8, MaxDelayUS: 1000,
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy status %d: %s", resp.StatusCode, body)
	}
	var dep DeploymentJSON
	if err := json.Unmarshal(body, &dep); err != nil {
		t.Fatal(err)
	}
	if dep.ID == "" || dep.JobID != job.ID || dep.App != "tiny" || dep.Algorithm != "dtree" || dep.Features != 2 {
		t.Fatalf("deployment document: %+v", dep)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/deployments/"+dep.ID {
		t.Fatalf("Location %q", loc)
	}

	// The listing shows it; the info endpoint carries stats.
	lresp, lbody := httpGet(t, srv.URL+"/v1/deployments")
	var all []DeploymentJSON
	if err := json.Unmarshal(lbody, &all); err != nil {
		t.Fatal(err)
	}
	if lresp.StatusCode != http.StatusOK || len(all) != 1 || all[0].ID != dep.ID {
		t.Fatalf("listing: %d %s", lresp.StatusCode, lbody)
	}

	// Classify a replayed batch: the tiny dataset's own feature space.
	batch := ClassifyRequest{Features: [][]float64{{0.1, 1.0}, {2.0, 0.1}, {0.2, 1.1}, {2.1, 0.0}}}
	cresp, cbody := postJSON(t, srv.URL+"/v1/deployments/"+dep.ID+"/classify", batch)
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
	sresp, sbody := httpGet(t, srv.URL+"/v1/deployments/"+dep.ID+"/stats")
	var st DeployStatsJSON
	if err := json.Unmarshal(sbody, &st); err != nil {
		t.Fatal(err)
	}
	if sresp.StatusCode != http.StatusOK || st.Completed < 4 || st.P99NS == 0 {
		t.Fatalf("stats: %d %+v", sresp.StatusCode, st)
	}
	if st.PerClass[0]+st.PerClass[1] != st.Completed {
		t.Fatalf("per-class counts must partition completions: %+v", st)
	}

	// DELETE drains and reports the final totals; the deployment is gone.
	dresp, dbody := doDelete(t, srv.URL+"/v1/deployments/"+dep.ID)
	var final DeployStatsJSON
	if err := json.Unmarshal(dbody, &final); err != nil {
		t.Fatal(err)
	}
	if dresp.StatusCode != http.StatusOK || final.Completed != st.Completed {
		t.Fatalf("drain: %d %+v", dresp.StatusCode, final)
	}
	gresp, _ := httpGet(t, srv.URL+"/v1/deployments/"+dep.ID)
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("undeployed GET status %d", gresp.StatusCode)
	}
	cresp2, _ := postJSON(t, srv.URL+"/v1/deployments/"+dep.ID+"/classify", batch)
	if cresp2.StatusCode != http.StatusNotFound {
		t.Fatalf("undeployed classify status %d", cresp2.StatusCode)
	}
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

func TestHTTPDeployErrors(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 1, CacheEntries: -1})

	// Bad bodies.
	for label, body := range map[string]string{
		"not json":  `{`,
		"no job id": `{}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/deployments", "application/json", bytes.NewBufferString(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", label, resp.StatusCode)
		}
	}

	// Unknown job.
	resp, _ := postJSON(t, srv.URL+"/v1/deployments", DeployRequest{JobID: "job-999999"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown job status %d", resp.StatusCode)
	}

	// A job that has not finished yet conflicts.
	deployBlockDatasets()
	blocked, presp := postJob(t, srv, submitBody("httpapi_deploy_block"))
	if presp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST status %d", presp.StatusCode)
	}
	resp, body := postJSON(t, srv.URL+"/v1/deployments", DeployRequest{JobID: blocked.ID})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("unfinished job deploy status %d: %s", resp.StatusCode, body)
	}
	// Unblock and settle the job so service Close can drain.
	deployReleaseOnce.Do(func() { close(deployRelease) })
	pollDone(t, srv, blocked.ID)

	// Unknown deployment paths 404.
	gresp, _ := httpGet(t, srv.URL+"/v1/deployments/dep-999999")
	if gresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown deployment GET %d", gresp.StatusCode)
	}
	dresp, _ := doDelete(t, srv.URL+"/v1/deployments/dep-999999")
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown deployment DELETE %d", dresp.StatusCode)
	}

	// Unknown app on a real job.
	done := compileDone(t, srv)
	resp, body = postJSON(t, srv.URL+"/v1/deployments", DeployRequest{JobID: done.ID, App: "nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown app status %d: %s", resp.StatusCode, body)
	}

	// Empty classify batch on a live deployment.
	resp, body = postJSON(t, srv.URL+"/v1/deployments", DeployRequest{JobID: done.ID})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy status %d: %s", resp.StatusCode, body)
	}
	var dep DeploymentJSON
	if err := json.Unmarshal(body, &dep); err != nil {
		t.Fatal(err)
	}
	cresp, _ := postJSON(t, srv.URL+"/v1/deployments/"+dep.ID+"/classify", ClassifyRequest{})
	if cresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", cresp.StatusCode)
	}
}

// TestHTTPClassifyFeatureMismatch: a wrong-width or ragged batch is
// refused whole with a 400 naming the first offending row and the
// expected width, on both classify routes, before anything is admitted.
func TestHTTPClassifyFeatureMismatch(t *testing.T) {
	srv, svc := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)
	resp, body := postJSON(t, srv.URL+"/v1/deployments", DeployRequest{JobID: job.ID})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy status %d: %s", resp.StatusCode, body)
	}
	var dep DeploymentJSON
	if err := json.Unmarshal(body, &dep); err != nil {
		t.Fatal(err)
	}
	for _, route := range []string{"/v1/deployments/", "/v1/endpoints/"} {
		for _, batch := range [][][]float64{{{0.1, 1.0}, {0.5}}, {{0.1, 1.0}, {0.5, 1, 2}}, {{0.1, 1.0}, {}}} {
			cresp, cbody := postJSON(t, srv.URL+route+dep.ID+"/classify", ClassifyRequest{Features: batch})
			if cresp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s %v: status %d: %s", route, batch, cresp.StatusCode, cbody)
			}
			want := fmt.Sprintf("features[1] has %d values", len(batch[1]))
			if !bytes.Contains(cbody, []byte(want)) || !bytes.Contains(cbody, []byte("expects 2")) {
				t.Fatalf("%s %v: error %s does not name the row and the width", route, batch, cbody)
			}
		}
	}
	ep, _ := svc.Endpoint(dep.ID)
	if st := ep.Stats().Merged; st.Accepted != 0 || st.Errors != 0 {
		t.Fatalf("refused batches reached the runtime: %+v", st)
	}
}

// TestHTTPDeploymentJSONShape pins the stats wire format the CI daemon
// smoke greps for.
func TestHTTPDeploymentJSONShape(t *testing.T) {
	st := statsJSON(homunculus.DeploymentStats{Accepted: 2, Completed: 2, PerClass: []uint64{1, 1}})
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

// TestHTTPDeploymentIsEndpointAlias pins the folded surface: a flat
// deployment is a real endpoint behind a minted "dep-%06d" name —
// visible and rollout-able under /v1/endpoints — while the flat listing
// shows only alias-minted names.
func TestHTTPDeploymentIsEndpointAlias(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)

	resp, body := postJSON(t, srv.URL+"/v1/deployments", DeployRequest{JobID: job.ID})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("deploy status %d: %s", resp.StatusCode, body)
	}
	var dep DeploymentJSON
	if err := json.Unmarshal(body, &dep); err != nil {
		t.Fatal(err)
	}
	if !flatDeploymentName.MatchString(dep.ID) {
		t.Fatalf("deployment ID %q is not an auto-minted endpoint name", dep.ID)
	}

	// The same resource is a live endpoint with a stable revision 1.
	eresp, ebody := httpGet(t, srv.URL+"/v1/endpoints/"+dep.ID)
	var ep EndpointJSON
	if err := json.Unmarshal(ebody, &ep); err != nil {
		t.Fatal(err)
	}
	if eresp.StatusCode != http.StatusOK || ep.Name != dep.ID || ep.Stable != 1 {
		t.Fatalf("endpoint view of deployment: %d %s", eresp.StatusCode, ebody)
	}

	// The endpoint lifecycle works on it: roll out the same job as
	// revision 2 and promote.
	rresp, rbody := postJSON(t, srv.URL+"/v1/endpoints/"+dep.ID+"/rollout",
		RolloutRequest{JobID: job.ID, CanaryPercent: 50})
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("rollout on deployment: %d %s", rresp.StatusCode, rbody)
	}
	presp, pbody := postJSON(t, srv.URL+"/v1/endpoints/"+dep.ID+"/promote", struct{}{})
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("promote on deployment: %d %s", presp.StatusCode, pbody)
	}

	// A named endpoint stays out of the flat listing, but the alias
	// resolves it by name for reads.
	cresp, cbody := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "alias-named", JobID: job.ID})
	if cresp.StatusCode != http.StatusCreated {
		t.Fatalf("named endpoint create: %d %s", cresp.StatusCode, cbody)
	}
	lresp, lbody := httpGet(t, srv.URL+"/v1/deployments")
	var all []DeploymentJSON
	if err := json.Unmarshal(lbody, &all); err != nil {
		t.Fatal(err)
	}
	if lresp.StatusCode != http.StatusOK || len(all) != 1 || all[0].ID != dep.ID {
		t.Fatalf("flat listing must show only minted names: %d %s", lresp.StatusCode, lbody)
	}
	gresp, _ := httpGet(t, srv.URL+"/v1/deployments/alias-named")
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("alias read of named endpoint: %d", gresp.StatusCode)
	}
}
