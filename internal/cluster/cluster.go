// Package cluster is the peer fabric that makes N homunculus daemons
// behave as one logical compiler (docs/cluster.md). It layers three
// cooperating mechanisms on the single-node service, without changing
// any single-node semantics:
//
//   - Membership: a static -peers seed list plus gossip. Every
//     heartbeat (GET /v1/cluster/health) exchanges the responder's
//     identity, health document, and digests of every peer it knows, so
//     a partially-connected seed graph converges to the full mesh.
//     Liveness is inferred locally from heartbeat age: alive → suspect
//     (missed heartbeats) → dead (evicted from fetch/steal candidacy).
//
//   - Shared logical cache: on a local miss, before paying a cold
//     compile, a node asks live peers for the artifact by content
//     address. Responses are envelope-verified before a byte is
//     installed or returned — a peer serving a corrupt artifact is
//     quarantined until it restarts (epoch change). Artifacts only ever
//     move by this pull: no route accepts one pushed by a peer.
//
//   - Work sharing: queue-full submissions are delegated to the
//     least-loaded live peer, and idle nodes steal from busy peers'
//     backlogs. Job identity and terminal durability stay on the origin
//     node in both directions — peers move compute, never the journal.
//
// The fabric mounts its wire surface through httpapi.ServerOptions and
// never owns a listener; cmd/homunculusd composes the two.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"log"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"

	homunculus "repro"
)

// Config parameterizes a Fabric. SelfAddr is required; everything else
// has serviceable defaults.
type Config struct {
	// SelfAddr is this node's advertised base URL — what peers dial for
	// heartbeats, artifact fetches, and steal reports.
	SelfAddr string
	// Peers seeds the membership table with static base URLs; gossip
	// grows it from there.
	Peers []string
	// Heartbeat is the gossip interval (default 1s). It also bounds each
	// heartbeat probe's deadline.
	Heartbeat time.Duration
	// SuspectAfter demotes a peer to suspect when its last heartbeat is
	// older than this (default 3×Heartbeat).
	SuspectAfter time.Duration
	// EvictAfter demotes to dead (default 10×Heartbeat). Dead
	// gossip-learned peers are dropped from the table; dead static peers
	// stay listed — they are configuration.
	EvictAfter time.Duration
	// StealInterval paces the idle thief loop (default 1s; negative
	// disables stealing entirely).
	StealInterval time.Duration
	// StealLease bounds how long the origin waits for a thief's report
	// before reclaiming the job and running it locally (default 30s).
	StealLease time.Duration
	// FetchTimeout bounds each per-peer artifact fetch attempt
	// (default 5s).
	FetchTimeout time.Duration
	// Logf sinks fabric events (default log.Printf).
	Logf func(format string, args ...any)
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Heartbeat <= 0 {
		out.Heartbeat = time.Second
	}
	if out.SuspectAfter <= 0 {
		out.SuspectAfter = 3 * out.Heartbeat
	}
	if out.EvictAfter <= 0 {
		out.EvictAfter = 10 * out.Heartbeat
	}
	if out.StealInterval == 0 {
		out.StealInterval = time.Second
	}
	if out.StealLease <= 0 {
		out.StealLease = 30 * time.Second
	}
	if out.FetchTimeout <= 0 {
		out.FetchTimeout = 5 * time.Second
	}
	if out.Logf == nil {
		out.Logf = log.Printf
	}
	return out
}

// peer is one remote node as this node sees it. All fields are guarded
// by Fabric.mu except the clients, which are immutable after creation.
type peer struct {
	addr        string
	id          string
	epoch       int64
	lastSeen    time.Time // zero: configured but never heard from
	health      httpapi.HealthJSON
	quarantined bool
	static      bool // from Config.Peers (never evicted from the table)

	// client carries the full retry policy for artifact/steal traffic;
	// probe is the single-attempt short-deadline heartbeat client —
	// liveness detection must not mask failures behind retries.
	client *httpapi.Client
	probe  *httpapi.Client
}

// Fabric is one node's view of the cluster plus the loops that maintain
// it. Create with New, wire through Options/Routes, Start, then Close.
type Fabric struct {
	svc *homunculus.Service
	cfg Config

	id    string
	epoch int64

	mu     sync.Mutex
	peers  map[string]*peer        // keyed by advertised base URL
	stolen map[string]*stolenEntry // origin-side ledger of leased-out jobs

	metrics metrics

	ctx    context.Context // cancelled at Close; bounds background traffic
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once
}

// metrics are the fabric counters surfaced at GET /v1/cluster.
type metrics struct {
	remoteHits, remoteMisses    atomic.Uint64
	poisoned, served            atomic.Uint64
	delegated, delegatedLocal   atomic.Uint64
	stolenGranted, stolenDone   atomic.Uint64
	reclaimed                   atomic.Uint64
	stealsTried, stealsExecuted atomic.Uint64
	fetchLat                    [serve.LatencyBuckets]atomic.Uint64 // log2 ns buckets, hits only
}

// New builds a fabric over svc and attaches its hooks: the remote
// artifact source and work-sharing wire retention.
// The fabric is inert until Start.
func New(svc *homunculus.Service, cfg Config) (*Fabric, error) {
	if cfg.SelfAddr == "" {
		return nil, fmt.Errorf("cluster: SelfAddr is required")
	}
	cfg = cfg.withDefaults()
	var idb [6]byte
	if _, err := rand.Read(idb[:]); err != nil {
		return nil, fmt.Errorf("cluster: node id: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &Fabric{
		svc:    svc,
		cfg:    cfg,
		id:     "node-" + hex.EncodeToString(idb[:]),
		epoch:  time.Now().UnixNano(),
		peers:  make(map[string]*peer),
		stolen: make(map[string]*stolenEntry),
		ctx:    ctx,
		cancel: cancel,
	}
	for _, addr := range cfg.Peers {
		f.addPeer(addr, true)
	}
	svc.SetRemoteArtifacts(f)
	svc.EnableWorkSharing()
	return f, nil
}

// ID returns this node's identity (minted per boot).
func (f *Fabric) ID() string { return f.id }

// Start launches the heartbeat and steal loops.
func (f *Fabric) Start() {
	f.wg.Add(1)
	go f.heartbeatLoop()
	if f.cfg.StealInterval > 0 {
		f.wg.Add(1)
		go f.stealLoop()
	}
}

// Close stops the loops and detaches the fabric from the service.
// Outstanding leased-out jobs are left non-terminal on purpose: their
// journal records replay at next boot, which is the durability story —
// failing them here would journal a terminal state the work never
// reached.
func (f *Fabric) Close() {
	f.once.Do(func() {
		f.cancel()
		f.wg.Wait()
		f.svc.SetRemoteArtifacts(nil)
		f.mu.Lock()
		for _, e := range f.stolen {
			e.timer.Stop()
		}
		f.mu.Unlock()
	})
}

// Options returns the ServerOptions that mount this fabric on an
// httpapi server.
func (f *Fabric) Options() httpapi.ServerOptions {
	return httpapi.ServerOptions{
		SubmitFallback: f.SubmitFallback,
		ClusterStats:   f.ClusterStats,
		Routes:         f.Routes(),
	}
}

// addPeer registers addr if it is new and not this node. Callers must
// not hold f.mu.
func (f *Fabric) addPeer(addr string, static bool) {
	if addr == "" || addr == f.cfg.SelfAddr {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.peers[addr]; ok {
		return
	}
	client := httpapi.NewClient(addr)
	client.MaxAttempts = 3
	client.BaseDelay = 50 * time.Millisecond
	client.AttemptTimeout = f.cfg.FetchTimeout
	probe := httpapi.NewClient(addr)
	probe.MaxAttempts = 1
	probe.AttemptTimeout = f.cfg.Heartbeat
	f.peers[addr] = &peer{addr: addr, static: static, client: client, probe: probe}
}

// stateOf derives a peer's liveness from heartbeat age.
func (f *Fabric) stateOf(p *peer, now time.Time) string {
	age := now.Sub(p.lastSeen)
	switch {
	case p.lastSeen.IsZero():
		return "unknown"
	case age <= f.cfg.SuspectAfter:
		return "alive"
	case age <= f.cfg.EvictAfter:
		return "suspect"
	default:
		return "dead"
	}
}

// snapshot returns the peer list sorted by address. Liveness is derived
// at call time, and dead gossip-learned peers are evicted as a side
// effect — the table only grows with reachable gossip.
func (f *Fabric) snapshot(now time.Time) []*peer {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*peer, 0, len(f.peers))
	for addr, p := range f.peers {
		if !p.static && f.stateOf(p, now) == "dead" {
			delete(f.peers, addr)
			continue
		}
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// livePeers returns peers usable for fetch/steal/delegation: alive (or
// never-probed unknown, so a fresh boot can fetch before its first
// heartbeat lands) and not quarantined, alive first.
func (f *Fabric) livePeers(now time.Time) []*peer {
	all := f.snapshot(now)
	var alive, unknown []*peer
	f.mu.Lock()
	for _, p := range all {
		if p.quarantined {
			continue
		}
		switch f.stateOf(p, now) {
		case "alive":
			alive = append(alive, p)
		case "unknown":
			unknown = append(unknown, p)
		}
	}
	f.mu.Unlock()
	return append(alive, unknown...)
}

// heartbeatLoop gossips with every known peer at the configured
// interval.
func (f *Fabric) heartbeatLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.Heartbeat)
	defer t.Stop()
	f.heartbeatOnce() // converge membership before the first tick
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
			f.heartbeatOnce()
		}
	}
}

func (f *Fabric) heartbeatOnce() {
	peers := f.snapshot(time.Now())
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *peer) {
			defer wg.Done()
			var hb httpapi.HeartbeatJSON
			// ?from introduces this node to the responder — a probe
			// teaches both directions, so any weakly-connected seed
			// graph converges to the full mesh.
			if err := p.probe.Get(f.ctx, "/v1/cluster/health?from="+url.QueryEscape(f.cfg.SelfAddr), &hb); err != nil {
				return // liveness decays via lastSeen age
			}
			f.mu.Lock()
			p.id = hb.Node.ID
			if hb.Node.Epoch != p.epoch {
				// A new epoch is a restarted process: its store was
				// recovered through the quarantine path, so a past
				// poisoning verdict no longer applies.
				p.epoch = hb.Node.Epoch
				p.quarantined = false
			}
			p.lastSeen = time.Now()
			p.health = hb.Health
			f.mu.Unlock()
			for _, d := range hb.Peers {
				f.addPeer(d.Addr, false)
			}
			f.addPeer(hb.Node.Addr, false)
		}(p)
	}
	wg.Wait()
}

// quarantinePeer marks addr poisoned until its next epoch change.
func (f *Fabric) quarantinePeer(addr string, err error) {
	f.mu.Lock()
	p, ok := f.peers[addr]
	if ok {
		p.quarantined = true
	}
	f.mu.Unlock()
	f.cfg.Logf("cluster: quarantined peer %s: %v", addr, err)
}

// selfNode renders this node's digest (load from the live service).
func (f *Fabric) selfNode() httpapi.ClusterNodeJSON {
	queued, running := f.svc.Stats()
	o := f.svc.Options()
	return httpapi.ClusterNodeJSON{
		ID:          f.id,
		Addr:        f.cfg.SelfAddr,
		Epoch:       f.epoch,
		State:       "self",
		Queued:      queued,
		Running:     running,
		MaxInFlight: o.MaxInFlight,
		QueueDepth:  o.QueueDepth,
	}
}

// nodeJSON renders one peer's digest. Callers must hold f.mu.
func (f *Fabric) nodeJSONLocked(p *peer, now time.Time) httpapi.ClusterNodeJSON {
	n := httpapi.ClusterNodeJSON{
		ID:          p.id,
		Addr:        p.addr,
		Epoch:       p.epoch,
		State:       f.stateOf(p, now),
		Queued:      p.health.Queued,
		Running:     p.health.Running,
		MaxInFlight: p.health.MaxInFlight,
		QueueDepth:  p.health.QueueDepth,
		Quarantined: p.quarantined,
	}
	if !p.lastSeen.IsZero() {
		n.LastSeenMS = now.Sub(p.lastSeen).Milliseconds()
	}
	return n
}

// peerTable renders every known peer's digest.
func (f *Fabric) peerTable(now time.Time) []httpapi.ClusterNodeJSON {
	peers := f.snapshot(now)
	out := make([]httpapi.ClusterNodeJSON, 0, len(peers))
	f.mu.Lock()
	for _, p := range peers {
		out = append(out, f.nodeJSONLocked(p, now))
	}
	f.mu.Unlock()
	return out
}

// Status renders the GET /v1/cluster document.
func (f *Fabric) Status() httpapi.ClusterStatusJSON {
	now := time.Now()
	return httpapi.ClusterStatusJSON{
		Self:  f.selfNode(),
		Peers: f.peerTable(now),
		Cache: f.cacheJSON(),
		Steal: httpapi.ClusterStealJSON{
			Delegated:       f.metrics.delegated.Load(),
			DelegatedLocal:  f.metrics.delegatedLocal.Load(),
			StolenGranted:   f.metrics.stolenGranted.Load(),
			StolenCompleted: f.metrics.stolenDone.Load(),
			Reclaimed:       f.metrics.reclaimed.Load(),
			StealsAttempted: f.metrics.stealsTried.Load(),
			StealsExecuted:  f.metrics.stealsExecuted.Load(),
		},
	}
}
