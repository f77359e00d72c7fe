package httpapi

// Flat deployment routes: the original serving surface of the daemon,
// now a thin alias over the endpoint lifecycle API (endpoints.go). A
// POST mints an auto-generated endpoint name ("dep-%06d") and creates a
// single-revision endpoint behind it; every other route resolves that
// name through the endpoint table. The wire shapes are unchanged, so
// existing clients keep working — but the deployments they create are
// real endpoints: they show up under /v1/endpoints, can be rolled out
// to, and (on a durable daemon) survive restarts, which the retired
// flat Deploy runtime never did (docs/serving.md):
//
//	POST   /v1/deployments                 deploy a finished job's pipeline
//	GET    /v1/deployments                 list flat-named deployments
//	GET    /v1/deployments/{id}            deployment info + stats
//	POST   /v1/deployments/{id}/classify   classify a feature batch
//	GET    /v1/deployments/{id}/stats      serving metrics snapshot
//	DELETE /v1/deployments/{id}            drain and remove

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regexp"
	"time"

	homunculus "repro"
)

// DeployRequest is the POST /v1/deployments body. Zero-valued knobs
// select the runtime defaults.
type DeployRequest struct {
	// JobID names the finished compilation job to serve.
	JobID string `json:"job_id"`
	// App selects one application of a multi-model pipeline (default:
	// the first with a deployable model).
	App        string `json:"app,omitempty"`
	Shards     int    `json:"shards,omitempty"`
	BatchSize  int    `json:"batch_size,omitempty"`
	MaxDelayUS int64  `json:"max_delay_us,omitempty"`
	QueueDepth int    `json:"queue_depth,omitempty"`
}

// DeploymentJSON is the wire rendering of a deployment: the flat view
// of a single-revision endpoint, its ID the auto-generated endpoint
// name.
type DeploymentJSON struct {
	ID         string           `json:"id"`
	JobID      string           `json:"job_id,omitempty"`
	App        string           `json:"app"`
	Platform   string           `json:"platform"`
	Algorithm  string           `json:"algorithm"`
	Features   int              `json:"features"`
	Classes    int              `json:"classes"`
	Shards     int              `json:"shards"`
	BatchSize  int              `json:"batch_size"`
	MaxDelayUS int64            `json:"max_delay_us"`
	QueueDepth int              `json:"queue_depth"`
	Stats      *DeployStatsJSON `json:"stats,omitempty"`
}

// DeployStatsJSON is the wire rendering of serving metrics.
type DeployStatsJSON struct {
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

func statsJSON(st homunculus.DeploymentStats) *DeployStatsJSON {
	return &DeployStatsJSON{
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

// StatsJSON renders a serving-stats snapshot in wire form — exported so
// internal/cluster can render per-node and merged documents with the
// exact schema the local stats surface uses.
func StatsJSON(st homunculus.DeploymentStats) DeployStatsJSON { return *statsJSON(st) }

// flatDeploymentName matches the auto-minted names the alias surface
// assigns — what distinguishes its endpoints in the flat listing.
var flatDeploymentName = regexp.MustCompile(`^dep-\d{6}$`)

// deploymentJSON renders an endpoint in the flat deployment wire shape:
// the stable revision's identity plus the endpoint's merged stats.
func deploymentJSON(e *homunculus.Endpoint, withStats bool) DeploymentJSON {
	cfg := e.Config()
	out := DeploymentJSON{
		ID:         e.Name(),
		Platform:   e.Platform(),
		Shards:     cfg.Shards,
		BatchSize:  cfg.BatchSize,
		MaxDelayUS: cfg.MaxDelay.Microseconds(),
		QueueDepth: cfg.QueueDepth,
	}
	stable, _, _, _ := e.View()
	for _, rev := range e.Revisions() {
		if rev.ID == stable {
			out.JobID = rev.JobID
			out.App = rev.App
		}
	}
	if m := e.Model(); m != nil {
		out.Algorithm = m.Kind.String()
		out.Features = m.Inputs
		out.Classes = m.Outputs
	}
	if withStats {
		out.Stats = statsJSON(e.Stats().Merged)
	}
	return out
}

func (h *handler) deploy(w http.ResponseWriter, r *http.Request) {
	var req DeployRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("parse request: %w", err))
		return
	}
	if req.JobID == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("request needs a job_id"))
		return
	}
	opts := homunculus.EndpointOptions{
		App:        req.App,
		Shards:     req.Shards,
		BatchSize:  req.BatchSize,
		MaxDelay:   time.Duration(req.MaxDelayUS) * time.Microsecond,
		QueueDepth: req.QueueDepth,
	}
	// The flat surface carries no name, so mint "dep-%06d" names until
	// one is free: a durable daemon restores earlier alias endpoints
	// across restarts while the in-process counter starts over, and the
	// collision loop walks past them.
	var ep *homunculus.Endpoint
	var err error
	for {
		name := fmt.Sprintf("dep-%06d", h.depSeq.Add(1))
		ep, err = h.svc.CreateEndpoint(name, req.JobID, opts)
		if !errors.Is(err, homunculus.ErrEndpointExists) {
			break
		}
	}
	if err != nil {
		switch {
		case errors.Is(err, homunculus.ErrJobNotFinished):
			// The job exists but has not produced a pipeline yet.
			writeError(w, http.StatusConflict, err)
		case errors.Is(err, homunculus.ErrServiceClosed):
			writeError(w, http.StatusServiceUnavailable, err)
		case errors.Is(err, homunculus.ErrNotDeployable):
			writeError(w, http.StatusConflict, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	w.Header().Set("Location", "/v1/deployments/"+ep.Name())
	writeJSON(w, http.StatusCreated, deploymentJSON(ep, false))
}

func (h *handler) listDeployments(w http.ResponseWriter, r *http.Request) {
	out := make([]DeploymentJSON, 0)
	for _, e := range h.svc.Endpoints() {
		// Only the alias surface's own endpoints appear in the flat
		// listing; named endpoints stay under /v1/endpoints.
		if flatDeploymentName.MatchString(e.Name()) {
			out = append(out, deploymentJSON(e, false))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// deploymentFor resolves the {id} path segment through the endpoint
// table — the alias accepts any live endpoint name, so flat clients can
// also read and classify named endpoints.
func (h *handler) deploymentFor(w http.ResponseWriter, r *http.Request) (*homunculus.Endpoint, bool) {
	id := r.PathValue("id")
	e, ok := h.svc.Endpoint(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no such deployment %q", id))
		return nil, false
	}
	return e, true
}

func (h *handler) deployment(w http.ResponseWriter, r *http.Request) {
	e, ok := h.deploymentFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, deploymentJSON(e, true))
}

func (h *handler) deploymentStats(w http.ResponseWriter, r *http.Request) {
	e, ok := h.deploymentFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, statsJSON(e.Stats().Merged))
}

func (h *handler) classify(w http.ResponseWriter, r *http.Request) {
	e, ok := h.deploymentFor(w, r)
	if !ok {
		return
	}
	classifyOn(w, r, e)
}

func (h *handler) undeploy(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, err := h.svc.DeleteEndpoint(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	// The drain has completed: the final stats are the deployment's
	// lifetime totals.
	writeJSON(w, http.StatusOK, statsJSON(st.Merged))
}
