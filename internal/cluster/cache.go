// The shared logical cache: this file implements homunculus.
// RemoteArtifacts over the peer wire surface, as a pull on a local miss.
// Every byte sequence a peer hands back is treated as hostile until
// store.VerifyEnvelope checks its embedded content address and payload
// digest, the same check a local disk read gets; a peer that fails it is
// quarantined (skipped for fetches) until it restarts with a new epoch.
// The check proves the bytes are intact, not that the pipeline was
// compiled from the spec behind the hash — that binding rests on the
// serving peer's word, which is why artifacts enter a node only through
// a fetch it started from a member it chose, never through a push.

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
	for _, p := range f.livePeers(time.Now()) {
		if payload, ok := f.fetchFromPeer(ctx, p, hash); ok {
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
		RemoteHits:   f.metrics.remoteHits.Load(),
		RemoteMisses: f.metrics.remoteMisses.Load(),
		Poisoned:     f.metrics.poisoned.Load(),
		Served:       f.metrics.served.Load(),
		FetchP50NS:   serve.LatencyQuantile(hist, 0.50).Nanoseconds(),
		FetchP99NS:   serve.LatencyQuantile(hist, 0.99).Nanoseconds(),
	}
}
