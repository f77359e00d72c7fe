// Command homunculusd runs the Homunculus compilation service as a
// long-lived HTTP/JSON daemon: many clients submit declarative pipeline
// specs, the service admits them under bounded concurrency,
// deduplicates identical submissions through the content-addressed
// cache, and streams per-stage progress. See docs/api.md for the wire
// format and curl examples.
//
//	homunculusd -addr :8077
//	homunculusd -addr :8077 -max-inflight 4 -queue-depth 128 -cache 256
//	homunculusd -addr :8077 -state-dir /var/lib/homunculus
//	homunculusd -addr :8077 -peers http://b:8077,http://c:8077 -node-addr http://a:8077
//
// -state-dir makes the daemon crash-safe (docs/operations.md): compiled
// pipelines persist in a content-addressed artifact store, every job
// transition is journaled write-ahead, and the endpoint table survives
// in a manifest. Restarting on the same directory replays the journal —
// finished work becomes warm cache hits, jobs that were queued or
// running at crash time recompile under their original IDs, and named
// endpoints resume serving their restored revisions. Without it the
// daemon is in-memory only and a restart forfeits everything.
//
// -peers joins a cluster fabric (docs/cluster.md): nodes gossip
// membership and health, fetch an artifact missing locally from a live
// peer by content address before compiling it, delegate queue-full
// submissions to the least-loaded live peer, and steal queued work when
// idle. Artifacts cross nodes only by that fetch; no route installs one.
// -node-addr is the base URL peers dial back; it defaults from -addr
// only when -addr carries a concrete host.
//
// Endpoints: POST /v1/jobs, GET /v1/jobs, GET /v1/jobs/{id},
// GET /v1/jobs/{id}/events (SSE), DELETE /v1/jobs/{id},
// GET /v1/backends, GET /v1/healthz. Finished jobs are promoted to live
// inference servers under /v1/endpoints (docs/serving.md): POST creates
// a named route (its "serving" document carries every runtime knob),
// POST {name}/classify serves batches, and DELETE drains. Revisions roll
// out gradually (POST {name}/rollout with a canary percent or shadow
// mirror), get promoted or rolled back atomically
// (POST {name}/promote|rollback), and report per-revision stats plus
// shadow divergence (GET {name}/stats, ?scope=cluster for the
// cross-node merge). The bundled synthetic dataset generators
// ("nslkdd", "iottc", "botnet") are pre-registered in the dataset
// catalog; embed the daemon to register custom loaders with
// alchemy.RegisterLoader.
//
// SIGINT/SIGTERM shut down gracefully: HTTP drains, running
// compilations finish, queued jobs fail with ErrServiceClosed
// (httpapi.ListenAndServeHandler).
package main

import (
	"flag"
	"log"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpapi"

	homunculus "repro"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8077", "listen address")
	maxInFlight := flag.Int("max-inflight", 0, "max concurrent compilations (0 = GOMAXPROCS)")
	queueDepth := flag.Int("queue-depth", 0, "max queued submissions (0 = default 64, negative = unbounded)")
	cacheEntries := flag.Int("cache", 0, "cached pipelines (0 = default 128, negative = disable caching)")
	stateDir := flag.String("state-dir", "", "durable state directory (artifact store + job journal + endpoint manifest); empty = in-memory only")
	peers := flag.String("peers", "", "comma-separated peer base URLs; non-empty joins a cluster fabric")
	nodeAddr := flag.String("node-addr", "", "advertised base URL peers dial back (default http://<addr> when -addr has a host)")
	heartbeat := flag.Duration("heartbeat", time.Second, "cluster gossip interval")
	stealInterval := flag.Duration("steal-interval", time.Second, "idle work-steal poll interval (negative = disable stealing)")
	stealLease := flag.Duration("steal-lease", 30*time.Second, "how long a thief holds a stolen job before the origin reclaims it")
	flag.Parse()

	httpapi.RegisterBuiltinLoaders()
	svc, err := homunculus.Open(homunculus.ServiceOptions{
		MaxInFlight:  *maxInFlight,
		QueueDepth:   *queueDepth,
		CacheEntries: *cacheEntries,
		StateDir:     *stateDir,
	})
	if err != nil {
		log.Fatalf("homunculusd: open state dir %s: %v", *stateDir, err)
	}
	if *stateDir != "" {
		rep := svc.Recovery()
		log.Printf("homunculusd: recovered %s: %d journal records (%d corrupt skipped), %d results warm, %d jobs requeued (%d unrecoverable), %d endpoints restored (%d skipped)",
			*stateDir, rep.JournalRecords, rep.JournalSkipped,
			len(rep.JobsRecovered), len(rep.JobsRequeued), len(rep.JobsSkipped),
			len(rep.EndpointsRestored), len(rep.EndpointsSkipped))
	}

	serverOpts := httpapi.ServerOptions{}
	if *peers != "" {
		self := *nodeAddr
		if self == "" {
			host := *addr
			if strings.HasPrefix(host, ":") {
				log.Fatalf("homunculusd: -peers needs -node-addr (cannot derive an advertised URL from %q)", *addr)
			}
			self = "http://" + host
		}
		fab, err := cluster.New(svc, cluster.Config{
			SelfAddr:      self,
			Peers:         splitPeers(*peers),
			Heartbeat:     *heartbeat,
			StealInterval: *stealInterval,
			StealLease:    *stealLease,
		})
		if err != nil {
			log.Fatalf("homunculusd: %v", err)
		}
		fab.Start()
		defer fab.Close()
		serverOpts = fab.Options()
		log.Printf("homunculusd: cluster fabric %s at %s (%d seed peers)",
			fab.ID(), self, len(splitPeers(*peers)))
	}

	opts := svc.Options()
	log.Printf("homunculusd: listening on %s (max in-flight %d, queue depth %d, cache %d)",
		*addr, opts.MaxInFlight, opts.QueueDepth, opts.CacheEntries)
	if err := httpapi.ListenAndServeHandler(*addr, svc, httpapi.NewServerWith(svc, serverOpts)); err != nil {
		log.Fatalf("homunculusd: %v", err)
	}
}

// splitPeers parses the -peers flag, tolerating spaces and empty
// entries.
func splitPeers(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, strings.TrimRight(p, "/"))
		}
	}
	return out
}
