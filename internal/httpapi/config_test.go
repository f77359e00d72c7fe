package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	homunculus "repro"
)

func httpPut(t *testing.T, url string, body []byte) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
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

// TestHTTPEndpointConfig drives the canonical config surface over the
// wire: create with a Serving document (explicit greedy flush), GET the
// effective config, PUT an invalid one (400 + violations list), PUT a
// valid adaptive config through the atomic rollout path, and watch the
// revision history grow.
func TestHTTPEndpointConfig(t *testing.T) {
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)

	zero := int64(0)
	resp, body := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{
		Name: "cfg-ep", JobID: job.ID,
		Serving: homunculus.ServingConfig{BatchSize: 8, MaxDelayNS: &zero},
	})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}

	// GET returns the effective config: requested fields verbatim, the
	// explicit greedy flush preserved as a present zero.
	gresp, gbody := httpGet(t, srv.URL+"/v1/endpoints/cfg-ep/config")
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("get config status %d: %s", gresp.StatusCode, gbody)
	}
	cfg, err := homunculus.ParseServingConfig(gbody)
	if err != nil {
		t.Fatalf("GET body is not a canonical config: %v\n%s", err, gbody)
	}
	if cfg.Version != 1 || cfg.BatchSize != 8 {
		t.Fatalf("effective config: %+v", cfg)
	}
	if cfg.MaxDelayNS == nil || *cfg.MaxDelayNS != 0 {
		t.Fatalf("explicit greedy flush lost: %+v", cfg)
	}

	// An invalid document is a 400 listing every violation.
	bresp, bbody := httpPut(t, srv.URL+"/v1/endpoints/cfg-ep/config",
		[]byte(`{"version":1,"batch_size":-5,"shards":100000}`))
	if bresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid config status %d: %s", bresp.StatusCode, bbody)
	}
	var ce configErrorJSON
	if err := json.Unmarshal(bbody, &ce); err != nil || len(ce.Violations) != 2 {
		t.Fatalf("400 body must list both violations: %s", bbody)
	}

	// Unknown fields are rejected, not silently dropped.
	uresp, _ := httpPut(t, srv.URL+"/v1/endpoints/cfg-ep/config",
		[]byte(`{"version":1,"batch_sise":32}`))
	if uresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown-field config status %d", uresp.StatusCode)
	}

	// A valid PUT applies through the rollout path and echoes the
	// now-effective document.
	delay := int64(250_000)
	raw, err := json.Marshal(homunculus.ServingConfig{
		BatchSize: 16, MaxDelayNS: &delay, AdaptiveFlush: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	presp, pbody := httpPut(t, srv.URL+"/v1/endpoints/cfg-ep/config", raw)
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("put config status %d: %s", presp.StatusCode, pbody)
	}
	applied, err := homunculus.ParseServingConfig(pbody)
	if err != nil {
		t.Fatal(err)
	}
	if applied.BatchSize != 16 || !applied.AdaptiveFlush || applied.MaxDelayNS == nil || *applied.MaxDelayNS != delay {
		t.Fatalf("applied config: %+v", applied)
	}

	// The change rode the rollout path: a second revision now exists and
	// the endpoint still classifies.
	iresp, ibody := httpGet(t, srv.URL+"/v1/endpoints/cfg-ep")
	var ep EndpointJSON
	if iresp.StatusCode != http.StatusOK || json.Unmarshal(ibody, &ep) != nil {
		t.Fatalf("endpoint info: %d %s", iresp.StatusCode, ibody)
	}
	if ep.Stable != 2 || len(ep.Revisions) != 2 {
		t.Fatalf("config apply must create a promoted revision: %+v", ep)
	}
	cresp, cbody := postJSON(t, srv.URL+"/v1/endpoints/cfg-ep/classify",
		ClassifyRequest{Features: [][]float64{{0.1, 1.0}, {2.0, 0.1}}})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("classify after config apply: %d %s", cresp.StatusCode, cbody)
	}

	// What GET returns, PUT accepts.
	_, gbody = httpGet(t, srv.URL+"/v1/endpoints/cfg-ep/config")
	if rresp, rbody := httpPut(t, srv.URL+"/v1/endpoints/cfg-ep/config", gbody); rresp.StatusCode != http.StatusOK {
		t.Fatalf("PUT of the GET document: %d %s", rresp.StatusCode, rbody)
	}
}

// TestHTTPTuneEndpoint exercises POST /v1/endpoints/{name}/tune end to
// end with a tiny budget: the report carries a frontier and a feasible
// chosen config, apply=true installs it, and the SLO failure modes map
// to 400/409.
func TestHTTPTuneEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("replay tuning is wall-clock bound")
	}
	srv, _ := setupServer(t, homunculus.ServiceOptions{MaxInFlight: 2})
	job := compileDone(t, srv)
	resp, body := postJSON(t, srv.URL+"/v1/endpoints", EndpointRequest{Name: "tune-ep", JobID: job.ID})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, body)
	}

	// Missing and malformed SLOs are 400s before any replay runs.
	mresp, _ := postJSON(t, srv.URL+"/v1/endpoints/tune-ep/tune", TuneRequest{})
	if mresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing slo status %d", mresp.StatusCode)
	}
	sresp, sbody := postJSON(t, srv.URL+"/v1/endpoints/tune-ep/tune", TuneRequest{SLO: "p99>=2ms"})
	if sresp.StatusCode != http.StatusBadRequest || !strings.Contains(string(sbody), "p99") {
		t.Fatalf("bad slo: %d %s", sresp.StatusCode, sbody)
	}

	tresp, tbody := postJSON(t, srv.URL+"/v1/endpoints/tune-ep/tune", TuneRequest{
		SLO: "p99<=500ms", Seed: 3, Budget: 4, Clients: 2, MaxShards: 2,
		TraceSamples: 64, Apply: true,
	})
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("tune status %d: %s", tresp.StatusCode, tbody)
	}
	var tr TuneResponse
	if err := json.Unmarshal(tbody, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Report == nil || len(tr.Report.Front) == 0 || !tr.Report.Chosen.Feasible || !tr.Applied {
		t.Fatalf("tune response: %s", tbody)
	}

	// apply=true installed the chosen config: the endpoint's effective
	// config now matches the report's choice.
	gresp, gbody := httpGet(t, srv.URL+"/v1/endpoints/tune-ep/config")
	if gresp.StatusCode != http.StatusOK {
		t.Fatalf("get config status %d", gresp.StatusCode)
	}
	live, err := homunculus.ParseServingConfig(gbody)
	if err != nil {
		t.Fatal(err)
	}
	if live.BatchSize != tr.Report.Chosen.Config.BatchSize {
		t.Fatalf("applied batch %d, chosen %d", live.BatchSize, tr.Report.Chosen.Config.BatchSize)
	}

	// An SLO no config can meet is a 409 carrying the closest miss.
	iresp, ibody := postJSON(t, srv.URL+"/v1/endpoints/tune-ep/tune", TuneRequest{
		SLO: "p99<=1ns", Seed: 3, Budget: 4, Clients: 2, MaxShards: 2, TraceSamples: 64,
	})
	if iresp.StatusCode != http.StatusConflict || !strings.Contains(string(ibody), "closest") {
		t.Fatalf("infeasible slo: %d %s", iresp.StatusCode, ibody)
	}
}
