// The fabric's wire surface, mounted through httpapi.ServerOptions.
// Routes. Schema documentation lives with the types in
// internal/httpapi/clusterwire.go; behavior notes live here.

package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/httpapi"
	"repro/internal/store"
)

// Routes returns the /v1/cluster/* handler table.
func (f *Fabric) Routes() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"GET /v1/cluster":                  f.handleStatus,
		"GET /v1/cluster/health":           f.handleHealth,
		"GET /v1/cluster/artifacts/{hash}": f.handleGetArtifact,
		"GET /v1/cluster/backlog":          f.handleBacklog,
		"POST /v1/cluster/steal":           f.handleSteal,
		"POST /v1/cluster/stolen":          f.handleStolen,
	}
}

func (f *Fabric) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, f.Status())
}

// handleHealth answers a heartbeat: identity + health + peer digests
// (the gossip payload). The responder's own digest rides in Node so a
// probe also introduces previously unknown nodes to each other.
func (f *Fabric) handleHealth(w http.ResponseWriter, r *http.Request) {
	if from := r.URL.Query().Get("from"); from != "" {
		f.addPeer(from, false)
	}
	self := f.selfNode()
	writeJSON(w, http.StatusOK, httpapi.HeartbeatJSON{
		Node:   self,
		Health: httpapi.Health(f.svc),
		Peers:  f.peerTable(time.Now()),
	})
}

// handleGetArtifact serves a stored artifact as a verified envelope —
// the peer-fetch counterpart of the local store read. Responding with
// the envelope (not the bare payload) lets the fetching side verify the
// digest before trusting a byte.
func (f *Fabric) handleGetArtifact(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	if !store.ValidKey(hash) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("cluster: invalid artifact key %q", hash))
		return
	}
	payload, ok := f.svc.ExportArtifact(hash)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("cluster: artifact %s not stored here", hash))
		return
	}
	env, err := store.WrapEnvelope(hash, payload)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	f.metrics.served.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(env)
}

func (f *Fabric) handleBacklog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, httpapi.BacklogJSON{Node: f.id, Jobs: f.svc.Backlog()})
}

// handleSteal claims one queued job for the requesting thief. Losing
// the race — the job started running, finished, or another thief got
// there first — is a 409 the thief treats as "try again later".
func (f *Fabric) handleSteal(w http.ResponseWriter, r *http.Request) {
	var req httpapi.StealRequestJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, httpapi.MaxRequestBody)).Decode(&req); err != nil {
		writeError(w, httpapi.DecodeStatus(err), err)
		return
	}
	if req.JobID == "" || req.ThiefAddr == "" {
		writeError(w, http.StatusBadRequest, errors.New("cluster: steal request needs job_id and thief_addr"))
		return
	}
	grant, ok := f.grantSteal(req)
	if !ok {
		writeError(w, http.StatusConflict, fmt.Errorf("cluster: job %s is not stealable", req.JobID))
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

// handleStolen accepts a thief's terminal report. A report that is not
// the lease holder's — no lease token, another token, or another
// address — is a 403 and changes nothing; a lease granted without a
// token is never settled here, so it ends by reclaim. A report for a
// job whose lease already expired is a 410 — the origin reclaimed it
// and the local run owns the terminal transition.
func (f *Fabric) handleStolen(w http.ResponseWriter, r *http.Request) {
	var rep httpapi.StealReportJSON
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, httpapi.MaxRequestBody)).Decode(&rep); err != nil {
		writeError(w, httpapi.DecodeStatus(err), err)
		return
	}
	err := errNotHolder
	if rep.LeaseToken != "" {
		err = f.handleStolenReport(rep)
	}
	switch {
	case errors.Is(err, errNotHolder):
		writeError(w, http.StatusForbidden, err)
		return
	case err != nil:
		writeError(w, http.StatusGone, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "accepted"})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
