// Package httpapi exposes a homunculus.Service over HTTP/JSON: the
// handler set behind cmd/homunculusd. The wire surface (docs/api.md) is
// deliberately thin — every semantic (admission bounds, job states,
// content-addressed caching, single-flight) lives in the service layer
// and is reused verbatim:
//
//	POST   /v1/jobs             submit a compilation, returns the job
//	GET    /v1/jobs             list jobs (admission order)
//	GET    /v1/jobs/{id}        status snapshot (+ result when done)
//	GET    /v1/jobs/{id}/events live progress stream (SSE)
//	DELETE /v1/jobs/{id}        cancel
//	GET    /v1/backends         registered platform kinds + defaults
//
// Finished jobs are promoted to live inference servers through the
// /v1/endpoints surface (endpoints.go, docs/serving.md): named routes
// with revisions, canary/shadow rollouts, promote, and rollback —
// zero-downtime swaps over a batched, backpressured runtime with
// per-revision latency/throughput stats. Every 429 the API emits
// carries a Retry-After backoff hint.
//
// Dataset references resolve through the alchemy loader catalog;
// RegisterBuiltinLoaders installs the bundled synthetic generators so a
// fresh daemon can compile the quickstart spec out of the box.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/loaders"

	homunculus "repro"
)

// registerBuiltins guards the catalog against double registration when
// both a daemon and its tests initialize.
var registerBuiltins sync.Once

// RegisterBuiltinLoaders installs the bundled synthetic dataset
// generators ("nslkdd", "iottc", "botnet", default configurations) in
// the alchemy loader catalog. Idempotent.
func RegisterBuiltinLoaders() {
	registerBuiltins.Do(func() {
		alchemy.RegisterLoader("nslkdd", loaders.NSLKDD(0, 0))
		alchemy.RegisterLoader("iottc", loaders.IoTTC(0, 0))
		alchemy.RegisterLoader("botnet", loaders.Botnet(0, 0))
	})
}

// SubmitRequest is the POST /v1/jobs body: the canonical platform wire
// document plus optional search-budget knobs (the CLI spec's "search"
// section).
type SubmitRequest struct {
	Platform *alchemy.PlatformJSON `json:"platform"`
	Search   *SearchJSON           `json:"search,omitempty"`
	// Validate runs translation validation after codegen and attaches
	// each app's verdict to the job result (docs/validation.md).
	Validate bool `json:"validate,omitempty"`
	// Delegated marks a submission forwarded by a peer's queue-full
	// fallback. A delegated submission that sheds here is a plain 429 —
	// never re-delegated — so a saturated cluster bounds forwarding at
	// one hop instead of ping-ponging jobs.
	Delegated bool `json:"delegated,omitempty"`
}

// SearchJSON mirrors the CLI spec's search knobs; zero fields keep
// defaults.
type SearchJSON struct {
	Init       int   `json:"init,omitempty"`
	Iterations int   `json:"iterations,omitempty"`
	Epochs     int   `json:"epochs,omitempty"`
	MaxLayers  int   `json:"max_layers,omitempty"`
	MaxNeurons int   `json:"max_neurons,omitempty"`
	Seed       int64 `json:"seed,omitempty"`
}

// Config applies the knobs over the default search configuration.
func (s *SearchJSON) Config() core.SearchConfig {
	cfg := core.DefaultSearchConfig()
	if s == nil {
		return cfg
	}
	if s.Init > 0 {
		cfg.BO.InitSamples = s.Init
	}
	if s.Iterations > 0 {
		cfg.BO.Iterations = s.Iterations
	}
	if s.Epochs > 0 {
		cfg.TrainEpochs = s.Epochs
	}
	if s.MaxLayers > 0 {
		cfg.MaxHiddenLayers = s.MaxLayers
	}
	if s.MaxNeurons > 0 {
		cfg.MaxNeurons = s.MaxNeurons
	}
	if s.Seed != 0 {
		cfg.Seed = s.Seed
	}
	return cfg
}

// JobJSON is the wire rendering of a job status snapshot.
type JobJSON struct {
	ID       string                                        `json:"id"`
	Platform string                                        `json:"platform"`
	State    homunculus.JobState                           `json:"state"`
	CacheHit bool                                          `json:"cache_hit,omitempty"`
	SpecHash string                                        `json:"spec_hash,omitempty"`
	Stages   map[homunculus.Stage]homunculus.StageProgress `json:"stages,omitempty"`
	Error    string                                        `json:"error,omitempty"`
	Result   *ResultJSON                                   `json:"result,omitempty"`
}

// ResultJSON summarizes a completed pipeline.
type ResultJSON struct {
	Platform    string         `json:"platform"`
	Apps        []AppJSON      `json:"apps"`
	Composition map[string]any `json:"composition,omitempty"`
}

// AppJSON is one compiled application.
type AppJSON struct {
	Name      string             `json:"name"`
	Algorithm string             `json:"algorithm,omitempty"`
	Metric    float64            `json:"metric"`
	Feasible  bool               `json:"feasible"`
	Verdict   map[string]float64 `json:"verdict,omitempty"`
	// Code is included only when the status request asks for it
	// (?include=code) — generated sources can be large.
	Code string `json:"code,omitempty"`
	// Validation is present when the job was submitted with
	// "validate": true.
	Validation *ValidationJSON `json:"validation,omitempty"`
}

// ValidationJSON is the wire form of a translation-validation verdict.
type ValidationJSON struct {
	OK          bool     `json:"ok"`
	Evaluators  []string `json:"evaluators,omitempty"`
	Inputs      int      `json:"inputs"`
	Divergences int      `json:"divergences"`
	Error       string   `json:"error,omitempty"`
	// Repro is the minimized divergence artifact; present only when the
	// status request asks for code/repro payloads (?include=code).
	Repro json.RawMessage `json:"repro,omitempty"`
}

// EventJSON is one SSE progress payload.
type EventJSON struct {
	Stage     homunculus.Stage `json:"stage"`
	Platform  string           `json:"platform,omitempty"`
	App       string           `json:"app,omitempty"`
	Candidate string           `json:"candidate,omitempty"`
	Done      bool             `json:"done"`
}

// BackendJSON describes one registered platform kind.
type BackendJSON struct {
	Kind     string                  `json:"kind"`
	CodeExt  string                  `json:"code_ext"`
	Defaults alchemy.ConstraintsJSON `json:"defaults"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// ListenAndServeHandler is the daemon loop behind cmd/homunculusd: HTTP
// on addr serving handler over svc, with graceful shutdown on
// SIGINT/SIGTERM — stop accepting requests, drain in-flight handlers
// (30 s bound), then Close the service so running compilations finish
// and queued jobs fail with their ErrServiceClosed terminal state.
func ListenAndServeHandler(addr string, svc *homunculus.Service, handler http.Handler) error {
	srv := &http.Server{Addr: addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		// Listen/serve failure (e.g. port in use) before any signal.
		return err
	case <-ctx.Done():
	}
	stop()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		_ = svc.Close()
		return fmt.Errorf("httpapi: shutdown: %w", err)
	}
	return svc.Close()
}

// ServerOptions extends the handler set with the cluster fabric's
// seams. The zero value is a plain single-node server.
type ServerOptions struct {
	// SubmitFallback is consulted when local job admission sheds with
	// ErrQueueFull (and the submission is not already delegated): it may
	// place the work elsewhere — delegation to the least-loaded live
	// peer — and return the local job handle tracking it. An error falls
	// through to the plain 429.
	SubmitFallback func(req SubmitRequest) (*homunculus.Job, error)
	// ClusterStats resolves GET /v1/endpoints/{name}/stats?scope=cluster
	// by merging the endpoint's histograms across live nodes. Nil maps
	// the scope to a 400 (not running in cluster mode).
	ClusterStats func(ctx context.Context, name string) (*ClusterStatsJSON, error)
	// Routes mounts extra patterns — the /v1/cluster/* surface.
	Routes map[string]http.HandlerFunc
}

// NewServer wraps the service in the /v1 HTTP handler set.
func NewServer(svc *homunculus.Service) http.Handler {
	return NewServerWith(svc, ServerOptions{})
}

// NewServerWith is NewServer plus cluster hooks.
func NewServerWith(svc *homunculus.Service, opts ServerOptions) http.Handler {
	h := &handler{svc: svc, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", h.healthz)
	for pattern, fn := range opts.Routes {
		mux.HandleFunc(pattern, fn)
	}
	mux.HandleFunc("POST /v1/jobs", h.submit)
	mux.HandleFunc("GET /v1/jobs", h.list)
	mux.HandleFunc("GET /v1/jobs/{id}", h.status)
	mux.HandleFunc("GET /v1/jobs/{id}/events", h.events)
	mux.HandleFunc("DELETE /v1/jobs/{id}", h.cancel)
	mux.HandleFunc("GET /v1/backends", h.backends)
	mux.HandleFunc("POST /v1/endpoints", h.createEndpoint)
	mux.HandleFunc("GET /v1/endpoints", h.listEndpoints)
	mux.HandleFunc("GET /v1/endpoints/{name}", h.endpoint)
	mux.HandleFunc("POST /v1/endpoints/{name}/rollout", h.rollout)
	mux.HandleFunc("POST /v1/endpoints/{name}/promote", h.promote)
	mux.HandleFunc("POST /v1/endpoints/{name}/rollback", h.rollback)
	mux.HandleFunc("POST /v1/endpoints/{name}/classify", h.endpointClassify)
	mux.HandleFunc("GET /v1/endpoints/{name}/stats", h.endpointStats)
	mux.HandleFunc("GET /v1/endpoints/{name}/config", h.getEndpointConfig)
	mux.HandleFunc("PUT /v1/endpoints/{name}/config", h.putEndpointConfig)
	mux.HandleFunc("POST /v1/endpoints/{name}/tune", h.tuneEndpoint)
	mux.HandleFunc("POST /v1/jobs/{id}/tune", h.tuneJob)
	mux.HandleFunc("DELETE /v1/endpoints/{name}", h.deleteEndpoint)
	return mux
}

type handler struct {
	svc  *homunculus.Service
	opts ServerOptions
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	if code == http.StatusTooManyRequests {
		writeRetryAfter(w)
	}
	writeJSON(w, code, errorJSON{Error: err.Error()})
}

// retryAfterSeconds is the backoff hint attached to every 429: both the
// job queue and the classify intake shed in bursts that clear quickly,
// so a short, fixed hint beats none at all.
const retryAfterSeconds = "1"

// writeRetryAfter marks a shed response with the standard backoff
// header. Every 429 the API emits — job admission queue full, classify
// batch fully shed — carries it.
func writeRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", retryAfterSeconds)
}

// Declaration decodes the request into the declaration and options it
// submits — the one request→declaration decode, shared by the submit
// handler and the queue-full fallback. Unknown dataset names fail here
// (the catalog lookup otherwise happens inside the job, where the client
// can only see the failure by polling).
func (req *SubmitRequest) Declaration() (*alchemy.Platform, []homunculus.Option, error) {
	if req.Platform == nil {
		return nil, nil, fmt.Errorf("request needs a platform document")
	}
	p, err := alchemy.PlatformFromJSON(req.Platform)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range p.Sched.Models() {
		if named, ok := m.Spec.DataLoader.(alchemy.NamedDataLoader); ok {
			if _, err := alchemy.LoaderFor(named.LoaderName()); err != nil {
				return nil, nil, err
			}
		}
	}
	opts := []homunculus.Option{homunculus.WithSearchConfig(req.Search.Config())}
	if req.Validate {
		opts = append(opts, homunculus.WithValidation())
	}
	return p, opts, nil
}

func (h *handler) submit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, DecodeStatus(err), err)
		return
	}
	p, opts, err := req.Declaration()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// The job must outlive this request: submit with a background
	// context rather than r.Context(). DELETE /v1/jobs/{id} is the
	// cancellation path.
	job, err := h.svc.Submit(context.Background(), p, opts...)
	if errors.Is(err, homunculus.ErrQueueFull) && h.opts.SubmitFallback != nil && !req.Delegated {
		// Cluster delegation: instead of shedding, hand the request to a
		// less-loaded peer and return a local job tracking it — unless
		// this submission already crossed a node (bounded at one hop).
		if djob, derr := h.opts.SubmitFallback(req); derr == nil {
			job, err = djob, nil
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, homunculus.ErrQueueFull):
			writeError(w, http.StatusTooManyRequests, err)
		case errors.Is(err, homunculus.ErrServiceClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID())
	writeJSON(w, http.StatusAccepted, jobJSON(job, false))
}

func (h *handler) list(w http.ResponseWriter, r *http.Request) {
	jobs := h.svc.Jobs()
	out := make([]JobJSON, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, jobJSON(j, false))
	}
	writeJSON(w, http.StatusOK, out)
}

func (h *handler) status(w http.ResponseWriter, r *http.Request) {
	job, ok := h.svc.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, jobJSON(job, r.URL.Query().Get("include") == "code"))
}

func (h *handler) cancel(w http.ResponseWriter, r *http.Request) {
	job, ok := h.svc.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	job.Cancel()
	// Cancellation is asynchronous for running jobs; report the state a
	// poll would now see.
	writeJSON(w, http.StatusOK, jobJSON(job, false))
}

// events streams the job's progress as Server-Sent Events: one
// "progress" event per pipeline Event (replaying history first), then a
// terminal "state" event, then EOF.
func (h *handler) events(w http.ResponseWriter, r *http.Request) {
	job, ok := h.svc.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such job %q", r.PathValue("id")))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	ch := job.Events()
	defer func() {
		// On early client disconnect, release the feed goroutine by
		// draining what remains (it closes once the job is terminal).
		go func() {
			for range ch {
			}
		}()
	}()
	enc := func(name string, v any) bool {
		raw, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", name, raw); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	for {
		select {
		case ev, open := <-ch:
			if !open {
				st := job.Status()
				final := JobJSON{ID: st.ID, Platform: st.Platform, State: st.State, CacheHit: st.CacheHit}
				if st.Err != nil {
					final.Error = st.Err.Error()
				}
				enc("state", final)
				return
			}
			if !enc("progress", EventJSON{
				Stage: ev.Stage, Platform: ev.Platform, App: ev.App,
				Candidate: ev.Candidate, Done: ev.Done,
			}) {
				return
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (h *handler) backends(w http.ResponseWriter, r *http.Request) {
	names := backend.Names()
	out := make([]BackendJSON, 0, len(names))
	for _, kind := range names {
		defaults, err := backend.Defaults(kind)
		if err != nil {
			continue
		}
		out = append(out, BackendJSON{
			Kind:     kind,
			CodeExt:  backend.CodeExt(kind),
			Defaults: alchemy.ConstraintsToJSON(defaults),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// jobJSON renders a status snapshot (with the result when terminal).
func jobJSON(j *homunculus.Job, includeCode bool) JobJSON {
	st := j.Status()
	out := JobJSON{
		ID:       st.ID,
		Platform: st.Platform,
		State:    st.State,
		CacheHit: st.CacheHit,
		SpecHash: st.SpecHash,
	}
	if len(st.Stages) > 0 {
		out.Stages = st.Stages
	}
	if st.Err != nil {
		out.Error = st.Err.Error()
	}
	if pipe, err := j.Result(); err == nil && pipe != nil {
		res := &ResultJSON{Platform: pipe.Platform}
		for _, app := range pipe.Apps {
			aj := AppJSON{
				Name:      app.Name,
				Algorithm: app.Algorithm,
				Metric:    app.Metric,
				Feasible:  app.Verdict.Feasible,
				Verdict:   app.Verdict.Metrics,
			}
			if includeCode {
				aj.Code = app.Code
			}
			if v := app.Validation; v != nil {
				aj.Validation = &ValidationJSON{
					OK:          v.OK(),
					Evaluators:  v.Evaluators,
					Inputs:      v.Inputs,
					Divergences: v.Divergences,
					Error:       v.Err,
				}
				if includeCode {
					aj.Validation.Repro = v.Repro
				}
			}
			res.Apps = append(res.Apps, aj)
		}
		if pipe.Composition != nil {
			res.Composition = map[string]any{
				"feasible": pipe.Composition.Feasible,
				"metrics":  pipe.Composition.Metrics,
			}
		}
		out.Result = res
	}
	return out
}
