package homunculus

// Service is the long-lived compilation front end: bounded admission
// over the staged pipeline, asynchronous Job handles, and a
// content-addressed result cache with single-flight coalescing. It is
// the shape the ROADMAP's "serve heavy traffic from many concurrent
// users" north star needs — Generate/GenerateAcross are now thin
// wrappers over a process-wide default service, and cmd/homunculusd
// exposes the same service over HTTP (docs/api.md).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/jobqueue"
	"repro/internal/store"
)

var (
	// ErrServiceClosed rejects submissions to a closed service and is
	// the terminal error of jobs still queued when Close ran.
	ErrServiceClosed = errors.New("homunculus: service closed")
	// ErrQueueFull rejects a submission when the admission backlog is at
	// capacity: shed load at the door instead of queueing unboundedly.
	ErrQueueFull = errors.New("homunculus: admission queue full")
)

// ServiceOptions bounds a service. Zero values select defaults.
type ServiceOptions struct {
	// MaxInFlight caps concurrent compilations (dispatch slots). The
	// searches inside each compilation still share the process-wide
	// worker pool, so this bounds admission, not CPU oversubscription.
	// Default: GOMAXPROCS.
	MaxInFlight int
	// QueueDepth caps jobs admitted but not yet dispatched. Submit
	// returns ErrQueueFull beyond it. Default 64; negative = unbounded.
	QueueDepth int
	// CacheEntries caps completed pipelines kept for content-addressed
	// reuse (oldest evicted first). Default 128; negative disables
	// caching entirely — every submission compiles.
	CacheEntries int
	// RetainJobs caps how many job handles the service keeps reachable
	// by ID: when exceeded, the oldest *terminal* jobs are forgotten
	// (live jobs are never evicted, and handles already held by callers
	// keep working). This bounds a long-lived daemon's memory. Default
	// 4096; negative = retain forever.
	RetainJobs int

	// StateDir makes the service durable: compiled pipelines land in an
	// on-disk content-addressed artifact store, every job transition is
	// journaled write-ahead, and the endpoint table is persisted — Open
	// on the same directory recovers all three (interrupted jobs re-run,
	// completed results serve warm, endpoints resume routing). Empty
	// keeps the service fully in-memory. See docs/operations.md.
	StateDir string
	// StateFS overrides the state directory's filesystem — the fault
	// injection seam (store.FaultFS). Nil uses the OS filesystem.
	StateFS store.FS
}

func (o ServiceOptions) withDefaults() ServiceOptions {
	if o.MaxInFlight == 0 {
		o.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if o.MaxInFlight < 1 {
		o.MaxInFlight = 1
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 128
	}
	if o.RetainJobs == 0 {
		o.RetainJobs = 4096
	}
	return o
}

// Service admits, deduplicates, schedules, and observes compilations.
// Create one with New; a Service must not be copied.
type Service struct {
	opts  ServiceOptions
	queue *jobqueue.Queue
	cache *flightCache // nil when caching is disabled

	mu     sync.Mutex
	closed bool
	nextID int
	jobs   map[string]*Job
	order  []string // job IDs in admission order

	// Endpoints: named serving routes with versioned revisions
	// (endpoint.go). Registered in creation order, drained on Close.
	endpoints map[string]*Endpoint
	epOrder   []string

	// fingerprints memoizes per-model dataset fingerprints so repeated
	// submissions of the same *Model (sweeps, resubmitted specs) do not
	// re-Load anonymous datasets just to hash them.
	fpMu         sync.Mutex
	fingerprints map[*alchemy.Model]string

	// Durability (nil/zero on an in-memory service): the opened state
	// directory, the count of store-layer failures absorbed so far
	// (degraded durability never fails a compilation), and the boot
	// recovery report.
	store     *store.Store
	storeErrs atomic.Uint64
	recovery  RecoveryReport

	// Cluster hooks (cluster.go): the peer fabric's artifact exchange
	// and the work-sharing switch that keeps queued submissions'
	// wire form around for stealing.
	remote      atomic.Pointer[remoteArtifactsBox]
	workSharing atomic.Bool
}

// New constructs a service with the given bounds. It panics when a
// StateDir cannot be opened — durable services should prefer Open, which
// returns the error (and the boot recovery report) instead.
func New(opts ServiceOptions) *Service {
	s, err := Open(opts)
	if err != nil {
		panic(fmt.Sprintf("homunculus: New with StateDir %q: %v (use Open to handle this error)", opts.StateDir, err))
	}
	return s
}

// Open constructs a service and, when opts.StateDir is set, opens the
// state directory and recovers: jobs interrupted by the previous
// process's death are re-enqueued under their original IDs, completed
// results become warm cache hits straight from the artifact store, and
// named endpoints resume serving their persisted revision history. The
// recovery outcome is reported by Recovery.
func Open(opts ServiceOptions) (*Service, error) {
	o := opts.withDefaults()
	s := &Service{
		opts:         o,
		queue:        jobqueue.New(o.MaxInFlight, o.QueueDepth),
		jobs:         map[string]*Job{},
		endpoints:    map[string]*Endpoint{},
		fingerprints: map[*alchemy.Model]string{},
	}
	if o.CacheEntries > 0 {
		s.cache = newFlightCache(o.CacheEntries)
	}
	if o.StateDir == "" {
		return s, nil
	}
	if err := s.recover(o.StateDir, o.StateFS); err != nil {
		return nil, err
	}
	return s, nil
}

// Options returns the effective (defaulted) service bounds.
func (s *Service) Options() ServiceOptions { return s.opts }

// Submit admits a compilation and returns immediately with its Job
// handle — it validates the declaration and enqueues, but never loads
// data, hashes, or searches, so it returns in well under a millisecond
// regardless of spec size. The job inherits cancellation and deadline
// from ctx (pass context.Background to decouple the job's lifetime from
// the caller's, as the HTTP daemon does); Job.Cancel works either way.
//
// Submission errors: validation errors from the declaration,
// ErrQueueFull when the backlog is at capacity, ErrServiceClosed after
// Close.
func (s *Service) Submit(ctx context.Context, p *alchemy.Platform, opts ...Option) (*Job, error) {
	clone, o, err := declare(p, opts)
	if err != nil {
		return nil, err
	}
	return s.admit(ctx, clone, o)
}

// declare is how a Go-API submission enters the service (bytes enter
// through decodeWireJob): the declaration validated, the options applied
// over the default search configuration, and the declaration's top level
// snapshotted so a caller mutating Kind or Constraints afterwards cannot
// race the compilation. (The schedule tree and loaders are shared by
// design — they are the declaration's identity.)
func declare(p *alchemy.Platform, opts []Option) (*alchemy.Platform, *options, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	o := &options{search: core.DefaultSearchConfig()}
	for _, opt := range opts {
		opt(o)
	}
	clone := *p
	return &clone, o, nil
}

// admit queues a validated submission under a fresh ID.
func (s *Service) admit(ctx context.Context, p *alchemy.Platform, o *options) (*Job, error) {
	j, err := s.mint(ctx, p)
	if err != nil {
		return nil, err
	}
	// Journaled before the queue can hand the job to a worker, so its
	// submitted record precedes running and its terminal record.
	s.recordSubmission(j, p, o)
	if err := s.enqueue(j, p, o); err != nil {
		s.journalRefused(j, err)
		return nil, err
	}
	s.register(j)
	return j, nil
}

// mint opens a job under the next ID.
func (s *Service) mint(ctx context.Context, p *alchemy.Platform) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrServiceClosed
	}
	s.nextID++
	return s.openJob(ctx, fmt.Sprintf("job-%06d", s.nextID), p), nil
}

// openJob builds the handle for id — minted above, or adopted from the
// journal by recovery — with its run context and, on a durable service,
// the journal hook, installed before the job can reach any terminal
// transition (including enqueue's drop callback).
func (s *Service) openJob(ctx context.Context, id string, p *alchemy.Platform) *Job {
	jctx, cancel := context.WithCancel(ctx)
	j := newJob(id, p.Kind.String(), cancel)
	j.ctx = jctx
	if s.store != nil {
		j.onFinish = s.journalFinish
	}
	return j
}

// enqueue hands the job to the dispatch queue.
func (s *Service) enqueue(j *Job, p *alchemy.Platform, o *options) error {
	ticket, err := s.queue.Submit(
		func() { s.run(j.ctx, j, p, o) },
		func(error) {
			j.finish(nil, fmt.Errorf("homunculus: job %s dropped before dispatch: %w", j.id, ErrServiceClosed))
		},
	)
	if err != nil {
		j.cancelCtx()
		switch {
		case errors.Is(err, jobqueue.ErrClosed):
			return ErrServiceClosed
		case errors.Is(err, jobqueue.ErrFull):
			return fmt.Errorf("%w (depth %d)", ErrQueueFull, s.opts.QueueDepth)
		}
		return err
	}
	j.mu.Lock()
	j.ticket = ticket
	j.mu.Unlock()
	return nil
}

// register makes the job reachable by ID.
func (s *Service) register(j *Job) {
	s.mu.Lock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.pruneLocked()
	s.mu.Unlock()
}

// removeFromOrder compacts a registration-order slice in place, keeping
// every entry except id. Caller holds s.mu.
func removeFromOrder(order []string, id string) []string {
	kept := order[:0]
	for _, v := range order {
		if v != id {
			kept = append(kept, v)
		}
	}
	return kept
}

// pruneLocked forgets the oldest terminal jobs once the retention cap is
// exceeded. It scans from the oldest only until it has found the excess,
// so an admission at the cap costs the non-terminal jobs older than the
// ones it forgets, not the whole retained set. Caller holds s.mu.
func (s *Service) pruneLocked() {
	if s.opts.RetainJobs < 0 || len(s.order) <= s.opts.RetainJobs {
		return
	}
	excess := len(s.order) - s.opts.RetainJobs
	n := 0 // the scanned prefix of s.order
	for ; n < len(s.order) && excess > 0; n++ {
		j := s.jobs[s.order[n]]
		j.mu.Lock()
		terminal := j.state.Terminal()
		j.mu.Unlock()
		if terminal {
			delete(s.jobs, j.id)
			s.order[n] = ""
			excess--
		}
	}
	// Close the gaps toward the unscanned rest, which stays where it is,
	// then drop the vacated front.
	w := n
	for i := n - 1; i >= 0; i-- {
		if id := s.order[i]; id != "" {
			w--
			s.order[i] = ""
			s.order[w] = id
		}
	}
	s.order = s.order[w:]
}

// Job looks up a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every submitted job in admission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Stats reports the admission backlog and in-flight compilation counts.
func (s *Service) Stats() (queued, running int) {
	return s.queue.Stats()
}

// Close stops admission, fails every still-queued job with an error
// wrapping ErrServiceClosed, and drains: it blocks until running
// compilations finish (they are not cancelled — cancel jobs explicitly
// for a hard stop) and until every endpoint delivers its accepted
// requests. Idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	s.closed = true
	eps := make([]*Endpoint, 0, len(s.epOrder))
	for _, name := range s.epOrder {
		eps = append(eps, s.endpoints[name])
	}
	s.mu.Unlock()
	s.queue.Close()
	for _, e := range eps {
		_ = e.Close()
	}
	// The endpoint manifest is NOT rewritten on shutdown — draining is
	// not deletion, and the persisted table is what the next Open
	// restores. Only the journal's append handle needs closing.
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.storeErr(fmt.Errorf("close state dir: %w", err))
		}
	}
	return nil
}

// run executes one admitted job on a dispatch slot.
func (s *Service) run(ctx context.Context, j *Job, p *alchemy.Platform, o *options) {
	if err := ctx.Err(); err != nil {
		j.finish(nil, fmt.Errorf("homunculus: compilation cancelled: %w", err))
		return
	}
	j.setRunning()
	s.journal(store.Record{Op: store.OpRunning, Job: j.id}, false)
	if s.cache == nil && s.store == nil && s.remote.Load() == nil {
		pipe, err := s.compileJob(ctx, j, p, o)
		j.finish(pipe, err)
		return
	}
	// Data materialized while fingerprinting anonymous loaders is kept
	// for the load stage, so a cache miss costs one Load, not two.
	preload := map[*alchemy.Model]*alchemy.Data{}
	key, err := specHash(p, o.search, o.validate, func(m *alchemy.Model) (string, error) {
		return s.fingerprint(m, preload)
	})
	if err != nil {
		j.finish(nil, err)
		return
	}
	j.setSpecHash(key)
	if s.cache == nil {
		// Durable but memory-cache-disabled: the artifact store still
		// deduplicates identical specs across restarts.
		if pipe, ok := s.lookupStored(ctx, key); ok {
			j.markCacheHit()
			j.finish(pipe, nil)
			return
		}
		pipe, err := s.compileLeader(ctx, j, p, o, preload, key)
		j.finish(pipe, err)
		return
	}
	for {
		f, leader := s.cache.acquire(key)
		if leader {
			// Read through to the artifact store first, then to cluster
			// peers: a result compiled before the last restart, by another
			// process on the same state dir, or by any peer node is a warm
			// hit with zero search events.
			if pipe, ok := s.lookupStored(ctx, key); ok {
				s.cache.complete(key, f, pipe, nil)
				j.markCacheHit()
				j.finish(pipe, nil)
				return
			}
			pipe, err := s.compileLeader(ctx, j, p, o, preload, key)
			s.cache.complete(key, f, pipe, err)
			j.finish(pipe, err)
			return
		}
		// Single-flight follower: park until the leader completes. A
		// cached success returns immediately (done already closed) with
		// zero additional pipeline events.
		select {
		case <-f.done:
		case <-ctx.Done():
			j.finish(nil, fmt.Errorf("homunculus: compilation cancelled: %w", ctx.Err()))
			return
		}
		if f.err == nil {
			j.markCacheHit()
			j.finish(f.pipe, nil)
			return
		}
		// The leader failed; failures are not cached, so re-acquire —
		// this submission may become the new leader and retry.
	}
}

// compileLeader compiles a cache-missing spec and writes the result
// through to the artifact store (best effort — a store failure degrades
// durability, never the compilation).
func (s *Service) compileLeader(ctx context.Context, j *Job, p *alchemy.Platform, o *options, preload map[*alchemy.Model]*alchemy.Data, key string) (*Pipeline, error) {
	lo := *o
	lo.preloaded = preload
	pipe, err := s.compileJob(ctx, j, p, &lo)
	if err == nil {
		s.storeArtifact(key, pipe)
	}
	return pipe, err
}

// fingerprint memoizes per-model dataset fingerprints. Anonymous
// loaders must materialize their data to hash it; that data lands in
// preload so the compile's load stage reuses it instead of loading
// again. A *Model is treated as an immutable declaration: its
// fingerprint is computed once, so a loader whose underlying data
// changes between submissions must be wrapped in a NEW Model (the same
// contract catalog references have, whose fingerprint is just the
// name). The Load runs outside the lock; a racing duplicate computes
// the same value. The map is bounded crudely — fingerprints are small,
// models few.
func (s *Service) fingerprint(m *alchemy.Model, preload map[*alchemy.Model]*alchemy.Data) (string, error) {
	s.fpMu.Lock()
	fp, ok := s.fingerprints[m]
	s.fpMu.Unlock()
	if ok {
		return fp, nil
	}
	var err error
	loader := m.Spec.DataLoader
	_, cheapFP := loader.(alchemy.Fingerprinter)
	_, named := loader.(alchemy.NamedDataLoader)
	if cheapFP || named {
		fp, err = alchemy.DatasetFingerprint(loader)
	} else {
		var data *alchemy.Data
		data, err = loader.Load()
		if err != nil {
			return "", fmt.Errorf("homunculus: fingerprint load: %w", err)
		}
		fp, err = alchemy.DataFingerprint(data)
		if err == nil && preload != nil {
			preload[m] = data
		}
	}
	if err != nil {
		return "", err
	}
	s.fpMu.Lock()
	if len(s.fingerprints) >= 4096 {
		s.fingerprints = map[*alchemy.Model]string{}
	}
	s.fingerprints[m] = fp
	s.fpMu.Unlock()
	return fp, nil
}

// compileJob runs the staged pipeline, teeing progress events into the
// job's feed and the submitter's WithProgress callback.
func (s *Service) compileJob(ctx context.Context, j *Job, p *alchemy.Platform, o *options) (*Pipeline, error) {
	target, err := backend.Build(p.BackendSpec())
	if err != nil {
		return nil, fmt.Errorf("homunculus: %w", err)
	}
	inner := *o
	user := o.progress
	inner.progress = func(ev Event) {
		j.observe(ev)
		if user != nil {
			user(ev)
		}
	}
	return compile(ctx, p, target, &inner)
}

// defaultService backs Generate/GenerateAcross: admission bounded at
// GOMAXPROCS with an unbounded backlog (a blocking Generate call must
// queue, not fail), caching disabled (direct calls keep their
// compile-every-time semantics; construct a Service to opt into reuse),
// and near-zero job retention — Generate discards its handle after
// Wait, so parking finished pipelines here would only pin memory.
var (
	defaultServiceOnce sync.Once
	defaultSvc         *Service
)

// DefaultService returns the process-wide service behind Generate and
// GenerateAcross. It is never closed.
func DefaultService() *Service {
	defaultServiceOnce.Do(func() {
		defaultSvc = New(ServiceOptions{QueueDepth: -1, CacheEntries: -1, RetainJobs: 8})
	})
	return defaultSvc
}
