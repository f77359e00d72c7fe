package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	homunculus "repro"
)

// testClient wires a Client to a test server with a recording sleep
// seam so backoff waits are observable instead of slept.
func testClient(srv *httptest.Server) (*Client, *[]time.Duration) {
	c := NewClient(srv.URL)
	c.BaseDelay = 10 * time.Millisecond
	c.MaxDelay = 80 * time.Millisecond
	var waits []time.Duration
	c.sleep = func(ctx context.Context, d time.Duration) error {
		waits = append(waits, d)
		return ctx.Err()
	}
	return c, &waits
}

// TestClientRetriesOn429 pins the headline contract: a shed request
// (429 + Retry-After, exactly what writeRetryAfter emits) is retried
// with the server's hint and eventually succeeds, with the POST body
// replayed byte-identically on every attempt.
func TestClientRetriesOn429(t *testing.T) {
	var calls atomic.Int32
	var bodies []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		raw, _ := io.ReadAll(r.Body)
		bodies = append(bodies, string(raw))
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorJSON{Error: "queue full"})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"ok": "yes"})
	}))
	defer srv.Close()

	c, waits := testClient(srv)
	var out map[string]string
	if err := c.Post(context.Background(), "/x", map[string]int{"n": 7}, &out); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 3 {
		t.Fatalf("attempts = %d, want 3", calls.Load())
	}
	if out["ok"] != "yes" {
		t.Fatalf("response %v", out)
	}
	// Retry-After: 1 wins over the (smaller) backoff schedule.
	if len(*waits) != 2 || (*waits)[0] != time.Second || (*waits)[1] != time.Second {
		t.Fatalf("waits %v, want [1s 1s] from Retry-After", *waits)
	}
	for i, b := range bodies {
		if b != bodies[0] {
			t.Fatalf("attempt %d body %q != first attempt %q", i, b, bodies[0])
		}
	}
}

// TestClientBackoffJitter: without a Retry-After hint, retries wait a
// jittered exponential backoff in [d/2, d] capped at MaxDelay.
func TestClientBackoffJitter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "restarting"})
	}))
	defer srv.Close()

	c, waits := testClient(srv)
	c.MaxAttempts = 6
	err := c.Get(context.Background(), "/x", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusServiceUnavailable {
		t.Fatalf("err = %v, want 503 APIError", err)
	}
	if len(*waits) != 5 {
		t.Fatalf("%d waits, want 5", len(*waits))
	}
	// Pre-jitter schedule: 10ms, 20ms, 40ms, 80ms, 80ms (capped).
	for i, ceil := range []time.Duration{10, 20, 40, 80, 80} {
		ceil *= time.Millisecond
		got := (*waits)[i]
		if got < ceil/2 || got > ceil {
			t.Fatalf("wait %d = %v outside jitter window [%v, %v]", i, got, ceil/2, ceil)
		}
	}
}

// TestClientNoRetryOnClientError: a 404 is an answer, not a transient —
// one attempt, immediate *APIError with the decoded message.
func TestClientNoRetryOnClientError(t *testing.T) {
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(w, http.StatusNotFound, errorJSON{Error: `no such job "job-000009"`})
	}))
	defer srv.Close()

	c, waits := testClient(srv)
	err := c.Get(context.Background(), "/v1/jobs/job-000009", nil)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want APIError", err)
	}
	if apiErr.Status != http.StatusNotFound || apiErr.Message != `no such job "job-000009"` {
		t.Fatalf("APIError %+v", apiErr)
	}
	if calls.Load() != 1 || len(*waits) != 0 {
		t.Fatalf("attempts=%d waits=%v, want exactly one try", calls.Load(), *waits)
	}
}

// TestClientRetriesTransportErrors: a refused connection (daemon down,
// mid-restart) retries until the budget runs out and surfaces the
// transport error.
func TestClientRetriesTransportErrors(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	srv.Close() // connection refused from here on

	c, waits := testClient(srv)
	c.MaxAttempts = 3
	err := c.Get(context.Background(), "/x", nil)
	if err == nil {
		t.Fatal("refused connection must error after retries")
	}
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		t.Fatalf("transport failure surfaced as APIError: %v", err)
	}
	if len(*waits) != 2 {
		t.Fatalf("%d waits, want 2 (3 attempts)", len(*waits))
	}
}

// TestClientRecoversWhenServerReturns proves the restart window story:
// transport errors first, then success — the client rides through.
func TestClientRecoversWhenServerReturns(t *testing.T) {
	var calls atomic.Int32
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]int{"n": 1})
	})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			// Kill the connection without a response: a torn socket.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Fatal("no hijacker")
			}
			conn, _, _ := hj.Hijack()
			conn.Close()
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()

	c, _ := testClient(srv)
	var out map[string]int
	if err := c.Get(context.Background(), "/x", &out); err != nil {
		t.Fatal(err)
	}
	if out["n"] != 1 || calls.Load() != 3 {
		t.Fatalf("out=%v calls=%d", out, calls.Load())
	}
}

// TestClientContextCancellation: a cancelled context stops the retry
// loop in its backoff sleep.
func TestClientContextCancellation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusServiceUnavailable, errorJSON{Error: "restarting"})
	}))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx, cancel := context.WithCancel(context.Background())
	c.sleep = func(ctx context.Context, d time.Duration) error {
		cancel()
		return ctx.Err()
	}
	if err := c.Get(ctx, "/x", nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestClientWaitJob polls through non-terminal states to the terminal
// snapshot.
func TestClientWaitJob(t *testing.T) {
	states := []homunculus.JobState{homunculus.JobQueued, homunculus.JobRunning, homunculus.JobDone}
	var calls atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(calls.Add(1)) - 1
		if n >= len(states) {
			n = len(states) - 1
		}
		writeJSON(w, http.StatusOK, JobJSON{ID: "job-000001", State: states[n], CacheHit: n == len(states)-1})
	}))
	defer srv.Close()

	c, waits := testClient(srv)
	job, err := c.WaitJob(context.Background(), "job-000001", time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if job.State != homunculus.JobDone || !job.CacheHit {
		t.Fatalf("terminal snapshot %+v", job)
	}
	if calls.Load() != 3 || len(*waits) != 2 {
		t.Fatalf("calls=%d waits=%d, want 3 polls with 2 sleeps", calls.Load(), len(*waits))
	}
}

// TestClientAgainstRealServer drives SubmitJob/WaitJob/ClassifyEndpoint
// against the actual handler set end to end.
func TestClientAgainstRealServer(t *testing.T) {
	RegisterBuiltinLoaders()
	svc := homunculus.New(homunculus.ServiceOptions{MaxInFlight: 2})
	defer svc.Close()
	srv := httptest.NewServer(NewServer(svc))
	defer srv.Close()

	c := NewClient(srv.URL)
	ctx := context.Background()
	req := SubmitRequest{Search: &SearchJSON{Init: 2, Iterations: 2, Epochs: 3, MaxLayers: 2, MaxNeurons: 8, Seed: 1}}
	if err := json.Unmarshal([]byte(`{
		"kind": "taurus",
		"constraints": {"throughput_gpkts": 1, "latency_ns": 500, "rows": 16, "cols": 16},
		"schedule": {"model": {"name": "ad", "metric": "f1", "algorithms": ["dnn"], "dataset": "nslkdd"}}
	}`), &req.Platform); err != nil {
		t.Fatal(err)
	}
	job, err := c.SubmitJob(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.WaitJob(ctx, job.ID, 20*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != homunculus.JobDone {
		t.Fatalf("job ended %s: %s", done.State, done.Error)
	}

	var ep EndpointJSON
	if err := c.Post(ctx, "/v1/endpoints", EndpointRequest{
		Name: "ad", JobID: job.ID, Serving: homunculus.ServingConfig{BatchSize: 8},
	}, &ep); err != nil {
		t.Fatal(err)
	}
	if ep.Stable != 1 {
		t.Fatalf("endpoint %+v", ep)
	}
	resp, err := c.ClassifyEndpoint(ctx, "ad", [][]float64{
		{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7},
		{5, 4, 3, 2, 1, 0.5, 0.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Classes) != 2 || resp.Dropped != 0 {
		t.Fatalf("classify %+v", resp)
	}
}
