package httpapi

// The serving-config and autopilot wire surface (docs/tuning.md):
//
//	GET  /v1/endpoints/{name}/config   the canonical effective ServingConfig
//	PUT  /v1/endpoints/{name}/config   validate + apply a config atomically
//	POST /v1/endpoints/{name}/tune     replay-driven BO tuning of the endpoint
//	POST /v1/jobs/{id}/tune            offline tuning of a finished job's model
//
// GET/PUT speak the canonical versioned ServingConfig document —
// complete-document semantics, so GET, edit, PUT round-trips losslessly.
// A config that fails validation is a 400 whose body lists every
// violation; PUT applies through the endpoint's atomic rollout path
// (409 while another rollout is in flight, previous bounds one
// rollback away). Tuning replays a trace against sandboxed candidate
// runtimes — the live endpoint is untouched unless "apply" is set.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	homunculus "repro"
)

// TuneRequest is the POST .../tune body.
type TuneRequest struct {
	// SLO is the objective bound list, e.g. "p99<=2ms,drops=0".
	// Required.
	SLO string `json:"slo"`
	// Seed fixes the optimizer's randomness (same seed + same trace =
	// same report).
	Seed int64 `json:"seed,omitempty"`
	// Budget caps candidate evaluations (default 24).
	Budget int `json:"budget,omitempty"`
	// Clients is the replay concurrency (default 8).
	Clients int `json:"clients,omitempty"`
	// MaxShards bounds the shard axis (default GOMAXPROCS).
	MaxShards int `json:"max_shards,omitempty"`
	// TraceSamples sizes the synthetic replay trace (default 512).
	TraceSamples int `json:"trace_samples,omitempty"`
	// App selects the application to tune (job tuning only).
	App string `json:"app,omitempty"`
	// Apply applies the chosen config to the endpoint on success
	// (endpoint tuning only).
	Apply bool `json:"apply,omitempty"`
}

// TuneResponse wraps the tuner's report: the evaluated candidates, the
// Pareto frontier, and the chosen config.
type TuneResponse struct {
	Report  *homunculus.TuneReport `json:"report"`
	Applied bool                   `json:"applied,omitempty"`
}

// configErrorJSON is the 400 body of a rejected config: the flat error
// plus the individual violations, each naming the field and its
// accepted range.
type configErrorJSON struct {
	Error      string   `json:"error"`
	Violations []string `json:"violations,omitempty"`
}

// writeConfigAwareError renders err like writeError, but when a
// ServingConfig validation failure is inside, the body also carries the
// machine-readable violations list.
func writeConfigAwareError(w http.ResponseWriter, code int, err error) {
	var ce *homunculus.ServingConfigError
	if errors.As(err, &ce) {
		writeJSON(w, code, configErrorJSON{Error: err.Error(), Violations: ce.Violations})
		return
	}
	writeError(w, code, err)
}

func (h *handler) getEndpointConfig(w http.ResponseWriter, r *http.Request) {
	ep, ok := h.endpointFor(w, r)
	if !ok {
		return
	}
	raw, err := ep.ServingConfig().Canonical()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(append(raw, '\n'))
}

func (h *handler) putEndpointConfig(w http.ResponseWriter, r *http.Request) {
	ep, ok := h.endpointFor(w, r)
	if !ok {
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, MaxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return
	}
	cfg, err := homunculus.ParseServingConfig(raw)
	if err != nil {
		writeConfigAwareError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := ep.ApplyConfig(cfg); err != nil {
		switch {
		case errors.Is(err, homunculus.ErrRolloutActive),
			errors.Is(err, homunculus.ErrEndpointClosed):
			writeError(w, http.StatusConflict, err)
		default:
			writeConfigAwareError(w, http.StatusBadRequest, err)
		}
		return
	}
	// Echo the now-effective config back (defaults resolved), so the
	// response is the document a follow-up GET would return.
	h.getEndpointConfig(w, r)
}

// tuneOptions maps the wire request onto the service tuning options.
func tuneOptions(req TuneRequest) homunculus.TuneOptions {
	return homunculus.TuneOptions{
		SLO:          req.SLO,
		Seed:         req.Seed,
		Budget:       req.Budget,
		Clients:      req.Clients,
		MaxShards:    req.MaxShards,
		TraceSamples: req.TraceSamples,
		App:          req.App,
		Apply:        req.Apply,
	}
}

// decodeTuneRequest parses and sanity-checks the tune body.
func decodeTuneRequest(w http.ResponseWriter, r *http.Request) (TuneRequest, bool) {
	var req TuneRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody)).Decode(&req); err != nil {
		writeError(w, DecodeStatus(err), fmt.Errorf("parse request: %w", err))
		return req, false
	}
	if req.SLO == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request needs an slo, e.g. \"p99<=2ms,drops=0\""))
		return req, false
	}
	return req, true
}

// writeTuneResult maps the tuner outcome onto the wire: 200 with the
// report, 409 for an infeasible SLO (the closest miss rides in the
// error), 400 for a bad SLO spelling.
func (h *handler) writeTuneResult(w http.ResponseWriter, rep *homunculus.TuneReport, applied bool, err error) {
	if err != nil {
		switch {
		case errors.Is(err, homunculus.ErrTuneInfeasible):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrRolloutActive):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrJobNotFinished):
			writeError(w, http.StatusConflict, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, TuneResponse{Report: rep, Applied: applied})
}

func (h *handler) tuneEndpoint(w http.ResponseWriter, r *http.Request) {
	if _, ok := h.endpointFor(w, r); !ok {
		return
	}
	req, ok := decodeTuneRequest(w, r)
	if !ok {
		return
	}
	// The tuner runs for the life of the request: a disconnecting client
	// cancels the replay via the request context.
	rep, err := h.svc.TuneEndpoint(r.Context(), r.PathValue("name"), tuneOptions(req))
	h.writeTuneResult(w, rep, err == nil && req.Apply, err)
}

func (h *handler) tuneJob(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeTuneRequest(w, r)
	if !ok {
		return
	}
	rep, err := h.svc.Tune(r.Context(), r.PathValue("id"), tuneOptions(req))
	h.writeTuneResult(w, rep, false, err)
}
