// The shared logical cache: this file implements homunculus.
// RemoteArtifacts over the peer wire surface. The trust boundary is
// store.VerifyEnvelope — every byte sequence a peer hands back is
// treated as hostile until its embedded content address and payload
// digest check out, the same defence PR6 applies to a local disk.
// A peer that fails verification is quarantined (skipped for fetches)
// until it restarts with a new epoch.

package cluster

import (
	"context"
	"encoding/json"
	"time"

	"repro/internal/httpapi"
	"repro/internal/serve"
	"repro/internal/store"
)

// Fetch resolves a content address from live peers, first hit wins.
// Called by the service's compile path after a local store miss; the
// returned payload is verified here, so the service installs it as-is.
func (f *Fabric) Fetch(ctx context.Context, hash string) ([]byte, bool) {
	if f.cfg.Mode == ModeLocal {
		return nil, false
	}
	for _, p := range f.livePeers(time.Now()) {
		payload, ok := f.fetchFromPeer(ctx, p, hash)
		if ok {
			f.metrics.installs.Add(1)
			return payload, true
		}
		if ctx.Err() != nil {
			break
		}
	}
	f.metrics.remoteMisses.Add(1)
	return nil, false
}

// fetchFromPeer pulls and verifies one artifact from one peer,
// recording hit latency or poisoning.
func (f *Fabric) fetchFromPeer(ctx context.Context, p *peer, hash string) ([]byte, bool) {
	start := time.Now()
	var env json.RawMessage
	if err := p.client.Get(ctx, "/v1/cluster/artifacts/"+hash, &env); err != nil {
		return nil, false // 404 (miss) and transport errors alike: try the next peer
	}
	payload, err := store.VerifyEnvelope(hash, env)
	if err != nil {
		f.metrics.poisoned.Add(1)
		f.quarantinePeer(p.addr, err)
		return nil, false
	}
	f.observeFetch(time.Since(start))
	f.metrics.remoteHits.Add(1)
	return payload, true
}

// fetchFrom is fetchFromPeer for an address that may not be in the peer
// table (a thief reporting a result names its own addr). A table entry
// is used when present so quarantine state applies.
func (f *Fabric) fetchFrom(ctx context.Context, addr, hash string) ([]byte, bool) {
	if addr == "" || addr == f.cfg.SelfAddr {
		return nil, false
	}
	f.addPeer(addr, false)
	f.mu.Lock()
	p, ok := f.peers[addr]
	quarantined := ok && p.quarantined
	f.mu.Unlock()
	if !ok || quarantined {
		return nil, false
	}
	return f.fetchFromPeer(ctx, p, hash)
}

// Offer announces a fresh local compile. In broadcast mode the wrapped
// envelope is pushed to every live peer asynchronously — Offer must not
// block the compile path that calls it.
func (f *Fabric) Offer(hash string, payload []byte) {
	if f.cfg.Mode != ModeBroadcast {
		return
	}
	env, err := store.WrapEnvelope(hash, payload)
	if err != nil {
		return
	}
	peers := f.livePeers(time.Now())
	if len(peers) == 0 {
		return
	}
	// Untracked on purpose: Close must not wait on handler-spawned
	// traffic, and every request below is bounded by f.ctx.
	go func() {
		for _, p := range peers {
			ctx, cancel := context.WithTimeout(f.ctx, f.cfg.FetchTimeout)
			err := p.client.Put(ctx, "/v1/cluster/artifacts/"+hash, json.RawMessage(env), nil)
			cancel()
			if err == nil {
				f.metrics.broadcasts.Add(1)
			}
			if f.ctx.Err() != nil {
				return
			}
		}
	}()
}

// observeFetch records a successful peer fetch in the log2 latency
// histogram (the serving stats' bucketing and quantile derivation).
func (f *Fabric) observeFetch(d time.Duration) {
	f.metrics.fetchLat[serve.LatencyBucket(d)].Add(1)
}

// cacheJSON renders the cache counters and the fetch-latency quantiles.
func (f *Fabric) cacheJSON() httpapi.ClusterCacheJSON {
	hist := make([]uint64, len(f.metrics.fetchLat))
	for i := range f.metrics.fetchLat {
		hist[i] = f.metrics.fetchLat[i].Load()
	}
	return httpapi.ClusterCacheJSON{
		Mode:           string(f.cfg.Mode),
		RemoteHits:     f.metrics.remoteHits.Load(),
		RemoteMisses:   f.metrics.remoteMisses.Load(),
		Poisoned:       f.metrics.poisoned.Load(),
		Served:         f.metrics.served.Load(),
		BroadcastsSent: f.metrics.broadcasts.Load(),
		Installs:       f.metrics.installs.Load(),
		FetchP50NS:     serve.LatencyQuantile(hist, 0.50).Nanoseconds(),
		FetchP99NS:     serve.LatencyQuantile(hist, 0.99).Nanoseconds(),
	}
}
