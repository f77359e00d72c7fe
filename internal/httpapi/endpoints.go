package httpapi

// Endpoint lifecycle handlers: the serving surface of the daemon.
// /v1/endpoints serves a *stable name* whose revisions can be rolled
// out gradually (deterministic canary split), mirrored (shadow scoring
// with a divergence report), promoted atomically, and rolled back —
// zero downtime at every step (docs/serving.md):
//
//	POST   /v1/endpoints                     create from a finished job
//	GET    /v1/endpoints                     list endpoints
//	GET    /v1/endpoints/{name}              endpoint info + stats
//	POST   /v1/endpoints/{name}/rollout      start a canary/shadow rollout
//	POST   /v1/endpoints/{name}/promote      make the rollout stable
//	POST   /v1/endpoints/{name}/rollback     abort rollout / revert stable
//	POST   /v1/endpoints/{name}/classify     classify a feature batch
//	GET    /v1/endpoints/{name}/stats        per-revision stats + divergence
//	GET    /v1/endpoints/{name}/config       canonical serving config (config.go)
//	PUT    /v1/endpoints/{name}/config       validate + apply a config (config.go)
//	POST   /v1/endpoints/{name}/tune         replay-driven autotuning (config.go)
//	DELETE /v1/endpoints/{name}              drain and remove

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	homunculus "repro"
)

// EndpointRequest is the POST /v1/endpoints body. Unknown fields are
// rejected.
type EndpointRequest struct {
	// Name is the endpoint's stable route name (URL-safe segment).
	Name string `json:"name"`
	// JobID names the finished compilation job whose pipeline becomes
	// revision 1.
	JobID string `json:"job_id"`
	// App selects one application of a multi-model pipeline.
	App string `json:"app,omitempty"`
	// Serving is the endpoint's serving configuration — the same
	// document GET/PUT /v1/endpoints/{name}/config speak and the tuner
	// emits. Absent selects every default; a violation is a 400 listing
	// all of them. Its validate_rollouts gates revision 1 and every
	// later rollout behind translation validation of the shipped
	// artifact (a diverging revision is refused with 409,
	// docs/validation.md).
	Serving homunculus.ServingConfig `json:"serving,omitzero"`
}

// RolloutRequest is the POST /v1/endpoints/{name}/rollout body. Rollouts
// inherit the endpoint's validate_rollouts setting. Unknown fields are
// rejected.
type RolloutRequest struct {
	// JobID names the finished compilation job to roll out.
	JobID string `json:"job_id"`
	// CanaryPercent routes this share (0-100) of requests to the new
	// revision; 0 deploys it warm without traffic.
	CanaryPercent int `json:"canary_percent,omitempty"`
	// Shadow mirrors traffic to the new revision off the record instead
	// of splitting it.
	Shadow bool   `json:"shadow,omitempty"`
	App    string `json:"app,omitempty"`
	// Serving overrides the new revision's runtime bounds; absent or
	// zero fields inherit the endpoint defaults.
	Serving homunculus.ServingConfig `json:"serving,omitzero"`
}

// RevisionJSON is the wire rendering of one endpoint revision.
type RevisionJSON struct {
	ID            int               `json:"id"`
	JobID         string            `json:"job_id,omitempty"`
	App           string            `json:"app"`
	State         string            `json:"state"`
	CanaryPercent int               `json:"canary_percent,omitempty"`
	Stats         *ServingStatsJSON `json:"stats,omitempty"`
}

// EndpointJSON is the wire rendering of an endpoint.
type EndpointJSON struct {
	Name          string `json:"name"`
	Platform      string `json:"platform"`
	Algorithm     string `json:"algorithm"`
	Features      int    `json:"features"`
	Classes       int    `json:"classes"`
	Stable        int    `json:"stable"`
	Canary        int    `json:"canary,omitempty"`
	CanaryPercent int    `json:"canary_percent,omitempty"`
	Shadow        int    `json:"shadow,omitempty"`
	// ValidateRollouts reports whether revisions are gated behind
	// translation validation.
	ValidateRollouts bool               `json:"validate_rollouts,omitempty"`
	Revisions        []RevisionJSON     `json:"revisions"`
	Stats            *EndpointStatsJSON `json:"stats,omitempty"`
}

// EndpointStatsJSON is the per-endpoint stats document: the merged view,
// the per-revision breakdown, and the shadow divergence report. When it
// is embedded in an EndpointJSON (whose revisions array already carries
// per-revision stats), the Revisions field is omitted.
type EndpointStatsJSON struct {
	Merged    ServingStatsJSON `json:"merged"`
	Revisions []RevisionJSON   `json:"revisions,omitempty"`
	Shadow    *DivergenceJSON  `json:"shadow,omitempty"`
}

// ServingStatsJSON is the wire rendering of serving metrics.
type ServingStatsJSON struct {
	Accepted        uint64   `json:"accepted"`
	Completed       uint64   `json:"completed"`
	Dropped         uint64   `json:"dropped"`
	Errors          uint64   `json:"errors"`
	PerClass        []uint64 `json:"per_class"`
	Batches         uint64   `json:"batches"`
	FullFlushes     uint64   `json:"full_flushes"`
	DeadlineFlushes uint64   `json:"deadline_flushes"`
	MeanBatch       float64  `json:"mean_batch"`
	P50NS           int64    `json:"p50_ns"`
	P99NS           int64    `json:"p99_ns"`
	ThroughputRPS   float64  `json:"throughput_rps"`
	UptimeMS        int64    `json:"uptime_ms"`
}

// StatsJSON renders a serving-stats snapshot in wire form — exported so
// internal/cluster can render per-node and merged documents with the
// exact schema the local stats surface uses.
func StatsJSON(st homunculus.ServingStats) ServingStatsJSON {
	return ServingStatsJSON{
		Accepted:        st.Accepted,
		Completed:       st.Completed,
		Dropped:         st.Dropped,
		Errors:          st.Errors,
		PerClass:        st.PerClass,
		Batches:         st.Batches,
		FullFlushes:     st.FullFlushes,
		DeadlineFlushes: st.DeadlineFlushes,
		MeanBatch:       st.MeanBatch,
		P50NS:           st.P50.Nanoseconds(),
		P99NS:           st.P99.Nanoseconds(),
		ThroughputRPS:   st.Throughput,
		UptimeMS:        st.Uptime.Milliseconds(),
	}
}

// DivergenceJSON is the shadow-vs-primary comparison report.
type DivergenceJSON struct {
	Revision  int        `json:"revision"`
	Mirrored  uint64     `json:"mirrored"`
	Shed      uint64     `json:"shed"`
	Errors    uint64     `json:"errors"`
	Agreed    uint64     `json:"agreed"`
	Disagreed uint64     `json:"disagreed"`
	Pairs     [][]uint64 `json:"pairs"`
}

func divergenceJSON(d *homunculus.ShadowDivergence) *DivergenceJSON {
	if d == nil {
		return nil
	}
	return &DivergenceJSON{
		Revision: d.Revision, Mirrored: d.Mirrored, Shed: d.Shed,
		Errors: d.Errors, Agreed: d.Agreed, Disagreed: d.Disagreed,
		Pairs: d.Pairs,
	}
}

func revisionJSON(r homunculus.RevisionInfo, withStats bool) RevisionJSON {
	out := RevisionJSON{
		ID: r.ID, JobID: r.JobID, App: r.App,
		State: string(r.State), CanaryPercent: r.CanaryPercent,
	}
	if withStats {
		st := StatsJSON(r.Stats)
		out.Stats = &st
	}
	return out
}

func endpointJSON(e *homunculus.Endpoint, withStats bool) EndpointJSON {
	stable, canary, pct, shadow := e.View()
	out := EndpointJSON{
		Name:     e.Name(),
		Platform: e.Platform(),
		Stable:   stable, Canary: canary, CanaryPercent: pct, Shadow: shadow,
		ValidateRollouts: e.ServingConfig().ValidateRollouts,
	}
	if withStats {
		// One full snapshot: the revisions array carries the per-revision
		// stats, so the embedded stats document only adds the merged view
		// and the divergence report.
		st := e.Stats()
		for _, r := range st.Revisions {
			out.Revisions = append(out.Revisions, revisionJSON(r, true))
		}
		out.Stats = &EndpointStatsJSON{
			Merged: StatsJSON(st.Merged),
			Shadow: divergenceJSON(st.Shadow),
		}
	} else {
		// Listing/lifecycle responses need only the routing metadata —
		// skip the runtime counter/histogram snapshot entirely.
		for _, r := range e.Revisions() {
			out.Revisions = append(out.Revisions, revisionJSON(r, false))
		}
	}
	if m := e.Model(); m != nil {
		out.Algorithm = m.Kind.String()
		out.Features = m.Inputs
		out.Classes = m.Outputs
	}
	return out
}

func endpointStatsJSON(st homunculus.EndpointStats) EndpointStatsJSON {
	out := EndpointStatsJSON{
		Merged: StatsJSON(st.Merged),
		Shadow: divergenceJSON(st.Shadow),
	}
	for _, r := range st.Revisions {
		out.Revisions = append(out.Revisions, revisionJSON(r, true))
	}
	return out
}

// MaxRequestBody caps every JSON request body except classify's, which
// carries feature batches under a cap of its own.
const MaxRequestBody = 1 << 20

// decodeStrict parses a request body of at most MaxRequestBody bytes,
// rejecting unknown fields — so a mistyped or retired knob is a 400
// naming it, not silently a default.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("parse request: %w", err)
	}
	return nil
}

// DecodeStatus is the status of a request whose body did not decode: 413
// when it ran past the cap, 400 otherwise.
func DecodeStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

func (h *handler) createEndpoint(w http.ResponseWriter, r *http.Request) {
	var req EndpointRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, DecodeStatus(err), err)
		return
	}
	if req.Name == "" || req.JobID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request needs a name and a job_id"))
		return
	}
	ep, err := h.svc.CreateEndpoint(req.Name, req.JobID, homunculus.EndpointOptions{
		App:     req.App,
		Serving: req.Serving,
	})
	if err != nil {
		switch {
		case errors.Is(err, homunculus.ErrJobNotFinished):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrNotDeployable):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrValidationFailed):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrServiceClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeConfigAwareError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Location", "/v1/endpoints/"+ep.Name())
	writeJSON(w, http.StatusCreated, endpointJSON(ep, false))
}

func (h *handler) listEndpoints(w http.ResponseWriter, r *http.Request) {
	eps := h.svc.Endpoints()
	out := make([]EndpointJSON, 0, len(eps))
	for _, e := range eps {
		out = append(out, endpointJSON(e, false))
	}
	writeJSON(w, http.StatusOK, out)
}

// endpoint resolves the {name} path segment to a live endpoint.
func (h *handler) endpointFor(w http.ResponseWriter, r *http.Request) (*homunculus.Endpoint, bool) {
	name := r.PathValue("name")
	ep, ok := h.svc.Endpoint(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such endpoint %q", name))
		return nil, false
	}
	return ep, true
}

func (h *handler) endpoint(w http.ResponseWriter, r *http.Request) {
	ep, ok := h.endpointFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, endpointJSON(ep, true))
}

func (h *handler) endpointStats(w http.ResponseWriter, r *http.Request) {
	switch scope := r.URL.Query().Get("scope"); scope {
	case "", "local":
		ep, ok := h.endpointFor(w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, endpointStatsJSON(ep.Stats()))
	case "raw":
		// The mergeable wire form: counters + log2 latency histogram,
		// what a peer sums into a cluster-scope view (docs/cluster.md).
		ep, ok := h.endpointFor(w, r)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, ep.RawStats())
	case "cluster":
		if h.opts.ClusterStats == nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("scope=cluster requires cluster mode (start the daemon with -peers)"))
			return
		}
		doc, err := h.opts.ClusterStats(r.Context(), r.PathValue("name"))
		if err != nil {
			if errors.Is(err, ErrEndpointNotFound) {
				writeError(w, http.StatusNotFound, err)
				return
			}
			writeError(w, http.StatusBadGateway, err)
			return
		}
		writeJSON(w, http.StatusOK, doc)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown stats scope %q (want local, raw, or cluster)", scope))
	}
}

func (h *handler) rollout(w http.ResponseWriter, r *http.Request) {
	ep, ok := h.endpointFor(w, r)
	if !ok {
		return
	}
	var req RolloutRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, DecodeStatus(err), err)
		return
	}
	if req.JobID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request needs a job_id"))
		return
	}
	_, err := ep.Rollout(req.JobID, homunculus.RolloutOptions{
		App:           req.App,
		CanaryPercent: req.CanaryPercent,
		Shadow:        req.Shadow,
		Serving:       req.Serving,
	})
	if err != nil {
		switch {
		case errors.Is(err, homunculus.ErrRolloutActive):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrJobNotFinished):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrNotDeployable):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrValidationFailed):
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrEndpointClosed):
			writeError(w, http.StatusConflict, err)
		default:
			writeConfigAwareError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, endpointJSON(ep, false))
}

func (h *handler) promote(w http.ResponseWriter, r *http.Request) {
	ep, ok := h.endpointFor(w, r)
	if !ok {
		return
	}
	if err := ep.Promote(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, endpointJSON(ep, false))
}

func (h *handler) rollback(w http.ResponseWriter, r *http.Request) {
	ep, ok := h.endpointFor(w, r)
	if !ok {
		return
	}
	if err := ep.Rollback(); err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusOK, endpointJSON(ep, false))
}

func (h *handler) endpointClassify(w http.ResponseWriter, r *http.Request) {
	ep, ok := h.endpointFor(w, r)
	if !ok {
		return
	}
	classifyOn(w, r, ep)
}

func (h *handler) deleteEndpoint(w http.ResponseWriter, r *http.Request) {
	st, err := h.svc.DeleteEndpoint(r.PathValue("name"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// The drain has completed: the final stats are the endpoint's
	// lifetime totals across every revision.
	writeJSON(w, http.StatusOK, endpointStatsJSON(st))
}
