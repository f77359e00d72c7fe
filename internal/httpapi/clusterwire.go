package httpapi

// Wire documents for the /v1/cluster/* surface (docs/cluster.md). The
// handlers live in internal/cluster (mounted through ServerOptions.
// Routes); the types live here with the rest of the wire schema so the
// CLI and peers share one vocabulary without importing the fabric.
//
//	GET  /v1/cluster                 node + peer table, cache/steal counters
//	GET  /v1/cluster/health          heartbeat: identity, health, peer digests
//	GET  /v1/cluster/artifacts/{hash} verified artifact envelope by content address
//	GET  /v1/cluster/backlog         stealable queued jobs
//	POST /v1/cluster/steal           claim one queued job for remote execution
//	POST /v1/cluster/stolen          report a stolen job's terminal state

import (
	"errors"

	"repro/internal/store"

	homunculus "repro"
)

// ErrEndpointNotFound marks a cluster-scope stats request for an
// endpoint no live node serves; the handler maps it to a 404.
var ErrEndpointNotFound = errors.New("httpapi: endpoint not found on any node")

// ClusterNodeJSON describes one node as its peers see it.
type ClusterNodeJSON struct {
	ID string `json:"id"`
	// Addr is the node's advertised base URL.
	Addr string `json:"addr"`
	// Epoch is the node's boot stamp (unix nanos); a changed epoch under
	// the same address means the process restarted.
	Epoch int64 `json:"epoch,omitempty"`
	// State: "self", "alive", "suspect" (missed heartbeats), "dead"
	// (evicted), or "unknown" (configured but never heard from).
	State string `json:"state"`
	// LastSeenMS is milliseconds since the last successful heartbeat.
	LastSeenMS int64 `json:"last_seen_ms,omitempty"`
	// Load, from the node's last health document.
	Queued      int `json:"queued"`
	Running     int `json:"running"`
	MaxInFlight int `json:"max_in_flight,omitempty"`
	QueueDepth  int `json:"queue_depth,omitempty"`
	// Quarantined marks a peer that served a corrupt artifact; it is
	// skipped for fetches until it restarts (new epoch).
	Quarantined bool `json:"quarantined,omitempty"`
}

// HeartbeatJSON is the GET /v1/cluster/health exchange: the responding
// node's identity and health, plus digests of every peer it knows —
// the gossip that lets a static -peers list discover the full mesh.
type HeartbeatJSON struct {
	Node   ClusterNodeJSON   `json:"node"`
	Health HealthJSON        `json:"health"`
	Peers  []ClusterNodeJSON `json:"peers,omitempty"`
}

// ClusterStatusJSON is the GET /v1/cluster document.
type ClusterStatusJSON struct {
	Self  ClusterNodeJSON   `json:"self"`
	Peers []ClusterNodeJSON `json:"peers"`
	Cache ClusterCacheJSON  `json:"cache"`
	Steal ClusterStealJSON  `json:"steal"`
}

// ClusterCacheJSON counts the shared-cache traffic: this node's fetches
// on a local miss and the fetches it answered for peers.
type ClusterCacheJSON struct {
	// RemoteHits/RemoteMisses count peer fetches by outcome; fetch
	// latency quantiles cover the hits.
	RemoteHits   uint64 `json:"remote_hits"`
	RemoteMisses uint64 `json:"remote_misses"`
	FetchP50NS   int64  `json:"fetch_p50_ns"`
	FetchP99NS   int64  `json:"fetch_p99_ns"`
	// Poisoned counts peer responses rejected by envelope verification
	// (and never installed); the serving peer is quarantined.
	Poisoned uint64 `json:"poisoned"`
	// Served counts artifact requests this node answered for peers.
	Served uint64 `json:"served"`
}

// ClusterStealJSON counts work-stealing traffic from both sides.
type ClusterStealJSON struct {
	// Origin side: queue-full submissions delegated to a peer, and
	// delegations that fell back to running locally.
	Delegated      uint64 `json:"delegated"`
	DelegatedLocal uint64 `json:"delegated_local"`
	// Origin side: queued jobs granted to thieves, thief-reported
	// completions, and leases that expired into a local reclaim run.
	StolenGranted   uint64 `json:"stolen_granted"`
	StolenCompleted uint64 `json:"stolen_completed"`
	Reclaimed       uint64 `json:"reclaimed"`
	// Thief side: steal attempts against busy peers and stolen jobs
	// actually executed here.
	StealsAttempted uint64 `json:"steals_attempted"`
	StealsExecuted  uint64 `json:"steals_executed"`
}

// StealRequestJSON is the POST /v1/cluster/steal body: a thief asking
// the origin for one specific queued job. LeaseToken is a random secret
// the thief mints for the lease and echoes in its report; only a report
// that carries it settles the job.
type StealRequestJSON struct {
	JobID      string `json:"job_id"`
	ThiefID    string `json:"thief_id"`
	ThiefAddr  string `json:"thief_addr"`
	LeaseToken string `json:"lease_token,omitempty"`
}

// StealGrantJSON hands the claimed job's wire form to the thief, with
// the lease the origin will wait before reclaiming the job.
type StealGrantJSON struct {
	JobID    string `json:"job_id"`
	Platform string `json:"platform"`
	store.WireJob
	LeaseMS int64 `json:"lease_ms"`
}

// StealReportJSON is the POST /v1/cluster/stolen body: the thief
// reporting a stolen job's terminal state under its origin ID. Addr is
// the thief's own address, where the origin fetches the result
// artifact; LeaseToken is the one its steal request carried.
type StealReportJSON struct {
	JobID      string `json:"job_id"`
	State      string `json:"state"` // "done" | "failed"
	SpecHash   string `json:"spec_hash,omitempty"`
	Error      string `json:"error,omitempty"`
	Addr       string `json:"addr"`
	LeaseToken string `json:"lease_token,omitempty"`
}

// BacklogJSON is the GET /v1/cluster/backlog document: this node's
// stealable queued jobs.
type BacklogJSON struct {
	Node string                  `json:"node"`
	Jobs []homunculus.BacklogJob `json:"jobs"`
}

// NodeStatsJSON is one node's contribution to a cluster-scope stats
// merge.
type NodeStatsJSON struct {
	Node  string           `json:"node"`
	Addr  string           `json:"addr"`
	Stats ServingStatsJSON `json:"stats"`
}

// ClusterStatsJSON answers GET /v1/endpoints/{name}/stats?scope=cluster:
// per-node snapshots plus the exact merge (counters summed, quantiles
// over the summed histograms). Raw carries the merged wire accumulator
// so the document itself can be merged further.
type ClusterStatsJSON struct {
	Name   string                     `json:"name"`
	Scope  string                     `json:"scope"`
	Nodes  []NodeStatsJSON            `json:"nodes"`
	Merged ServingStatsJSON           `json:"merged"`
	Raw    homunculus.RawServingStats `json:"raw"`
}
