package homunculus

// Endpoint is the serving handle: a stable named route (e.g.
// "anomaly-detection") owning an ordered history of revisions, each a
// compiled pipeline's prepared inference runtime. It is what the paper's
// continuous-recompilation story needs in production: ship a re-compiled
// pipeline behind the same name with a deterministic canary slice or an
// off-the-record shadow mirror, watch the per-revision stats and
// divergence report, then Promote — one atomic routing-table swap,
// in-flight requests finish on the revision that admitted them, nothing
// is dropped — or Rollback to the previous revision, which stays warm.
// Every serving knob is spelled once, in ServingConfig (config.go).

import (
	"errors"
	"fmt"
	"regexp"
	"sync"
	"time"

	"repro/internal/ir"
	"repro/internal/serve"
)

var (
	// ErrOverloaded sheds a classify request because the endpoint's
	// bounded intake queue is full — back off and retry (HTTP 429).
	ErrOverloaded = serve.ErrOverloaded
	// ErrNotDeployable rejects serving a pipeline (or app) that carries
	// no compiled model.
	ErrNotDeployable = errors.New("homunculus: pipeline has no deployable model")
	// ErrEndpointExists rejects creating an endpoint under a name a live
	// endpoint already holds.
	ErrEndpointExists = errors.New("homunculus: endpoint already exists")
	// ErrRolloutActive rejects starting a rollout while another is in
	// progress on the same endpoint.
	ErrRolloutActive = serve.ErrRolloutActive
	// ErrNoRollout rejects Promote when no rollout is in progress.
	ErrNoRollout = serve.ErrNoRollout
	// ErrNoRollback rejects Rollback when there is neither a rollout to
	// abort nor a previous stable revision to return to.
	ErrNoRollback = serve.ErrNoRollback
	// ErrEndpointClosed rejects requests to an endpoint that is draining
	// or deleted.
	ErrEndpointClosed = serve.ErrClosed
	// ErrValidationFailed (validation.go) refuses creating or rolling out
	// a revision whose shipped artifact fails translation validation on a
	// ValidateRollouts endpoint.
)

// RevisionState mirrors a revision's place in the endpoint lifecycle:
// "stable", "canary", "shadow", or "retired".
type RevisionState = serve.RevisionState

// ShadowDivergence is the shadow-vs-primary comparison report of a
// rollout: mirrored/shed/error counters, agree/disagree totals, and the
// per-class-pair confusion matrix.
type ShadowDivergence = serve.DivergenceStats

// ServingStats is a point-in-time snapshot of serving metrics
// (throughput, latency quantiles, per-class counts, drops).
type ServingStats = serve.Stats

// EndpointOptions shapes a new endpoint.
type EndpointOptions struct {
	// App selects which compiled application of a multi-model pipeline
	// to serve. Empty selects the first app with a deployable model.
	App string
	// Serving is the endpoint's serving configuration — the document the
	// tuner emits and PUT /v1/endpoints/{name}/config applies. The zero
	// value selects every default; an out-of-range value fails the
	// create with every violation listed (*ServingConfigError).
	Serving ServingConfig
}

// RolloutOptions shapes how a new revision receives traffic.
type RolloutOptions struct {
	// App selects which compiled application of a multi-model pipeline
	// becomes the new revision. Empty prefers the app the endpoint
	// already serves, falling back to the first with a deployable model.
	App string
	// CanaryPercent routes this deterministic share of requests (0-100)
	// to the new revision; 0 deploys it warm but routes nothing until
	// Promote — useful for verifying a swap without exposing traffic.
	CanaryPercent int
	// Shadow mirrors every classified request to the new revision off
	// the record: callers keep receiving the stable answer while the
	// divergence counters compare the two. Mutually exclusive with a
	// nonzero CanaryPercent.
	Shadow bool
	// Serving overrides the new revision's serving document; zero fields
	// inherit the endpoint's document (ServingConfig.Inherit). Its
	// presence-aware MaxDelayNS lets a rollout pin an explicit greedy
	// flush (delay 0) instead of inheriting the endpoint's delay.
	// ValidateRollouts is an endpoint setting and is ignored here.
	Serving ServingConfig
}

// RevisionInfo describes one revision of an endpoint.
type RevisionInfo struct {
	// ID is the endpoint-local revision number, starting at 1.
	ID int
	// JobID is the compilation job the revision serves ("" when its
	// pipeline was supplied directly).
	JobID string
	// App is the served application (model) name.
	App string
	// State is the revision's place in the lifecycle.
	State RevisionState
	// CanaryPercent is the traffic share of a canary revision.
	CanaryPercent int
	// Created is when the revision was rolled out.
	Created time.Time
	// Warm reports whether the revision holds a live runtime. Retired
	// revisions beyond the endpoint's RetainRetired cap run cold: listed,
	// rollback-able (their runtime is re-created on demand), but not
	// consuming serving resources.
	Warm bool
	// Config is the revision's effective serving document: the one its
	// runtime is built from and the manifest persists — a rollout's
	// override merged over the endpoint's document, defaults not filled.
	Config ServingConfig
	// Stats snapshots the revision's own serving metrics.
	Stats ServingStats
}

// EndpointStats is a point-in-time snapshot of an endpoint: the merged
// serving metrics, the per-revision breakdown, and the most recent
// shadow divergence report (nil if there never was a shadow rollout).
type EndpointStats struct {
	Name      string
	Platform  string
	Revisions []RevisionInfo
	Merged    ServingStats
	Shadow    *ShadowDivergence
}

// Endpoint is a stable named serving route over versioned revisions.
// All methods are safe for concurrent use.
type Endpoint struct {
	name     string
	platform string
	created  time.Time
	svc      *Service
	// ep holds the serving documents, the endpoint's and each
	// revision's; the endpoint's ValidateRollouts gates every revision
	// behind translation validation of its shipped artifact.
	ep *serve.Endpoint

	mu   sync.Mutex
	meta map[int]revisionMeta // revision ID -> origin

	forget sync.Once
}

type revisionMeta struct {
	jobID string
	app   string
	// specHash keys the artifact store entry holding the revision's
	// pipeline ("" on an in-memory service, or when persisting failed —
	// the revision then does not survive a restart).
	specHash string
}

// endpointNameRE bounds endpoint names to URL-path-safe route segments.
var endpointNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,127}$`)

// CreateEndpoint promotes a finished job's compiled pipeline into a
// named serving endpoint whose first revision starts with all traffic.
// The name must be a URL-safe segment (letters, digits, ".", "_", "-")
// and unused by any live endpoint on this service.
func (s *Service) CreateEndpoint(name, jobID string, opts EndpointOptions) (*Endpoint, error) {
	pipe, err := s.jobPipeline(jobID)
	if err != nil {
		return nil, err
	}
	return s.createEndpoint(name, pipe, jobID, opts)
}

// CreateEndpointPipeline creates a named endpoint over a pipeline
// compiled out of band (for example by a direct Generate call).
func (s *Service) CreateEndpointPipeline(name string, pipe *Pipeline, opts EndpointOptions) (*Endpoint, error) {
	return s.createEndpoint(name, pipe, "", opts)
}

func (s *Service) createEndpoint(name string, pipe *Pipeline, jobID string, opts EndpointOptions) (*Endpoint, error) {
	if !endpointNameRE.MatchString(name) {
		return nil, fmt.Errorf("homunculus: endpoint name %q is not a URL-safe segment ([A-Za-z0-9._-], must start alphanumeric)", name)
	}
	app, err := selectApp(pipe, opts.App)
	if err != nil {
		return nil, err
	}
	cfg := opts.Serving
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("homunculus: endpoint %s: %w", name, err)
	}
	if cfg.ValidateRollouts {
		if err := gateRollout(pipe.Platform, app); err != nil {
			return nil, err
		}
	}
	sep, err := serve.NewEndpoint(name, app.Model, cfg)
	if err != nil {
		return nil, fmt.Errorf("homunculus: endpoint %s: %w", name, err)
	}
	e := &Endpoint{
		name:     name,
		platform: pipe.Platform,
		created:  time.Now(),
		svc:      s,
		ep:       sep,
		meta: map[int]revisionMeta{1: {
			jobID:    jobID,
			app:      app.Name,
			specHash: s.endpointArtifact(pipe, jobID),
		}},
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = sep.Close()
		return nil, ErrServiceClosed
	}
	if _, dup := s.endpoints[name]; dup {
		s.mu.Unlock()
		_ = sep.Close()
		return nil, fmt.Errorf("%w: %q", ErrEndpointExists, name)
	}
	s.endpoints[name] = e
	s.epOrder = append(s.epOrder, name)
	s.mu.Unlock()
	s.persistEndpoints()
	return e, nil
}

// Endpoint looks up a live endpoint by name.
func (s *Service) Endpoint(name string) (*Endpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.endpoints[name]
	return e, ok
}

// Endpoints returns every live endpoint in creation order.
func (s *Service) Endpoints() []*Endpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Endpoint, 0, len(s.epOrder))
	for _, name := range s.epOrder {
		out = append(out, s.endpoints[name])
	}
	return out
}

// DeleteEndpoint drains an endpoint (every accepted request across every
// revision is delivered) and removes it, returning its final stats.
func (s *Service) DeleteEndpoint(name string) (EndpointStats, error) {
	s.mu.Lock()
	e, ok := s.endpoints[name]
	s.mu.Unlock()
	if !ok {
		return EndpointStats{}, fmt.Errorf("homunculus: delete endpoint: no such endpoint %q", name)
	}
	if err := e.Close(); err != nil {
		return EndpointStats{}, err
	}
	// Snapshot after the drain so the final report covers every request
	// delivered on the way down.
	return e.Stats(), nil
}

// forgetEndpoint removes a closed endpoint from the service table and
// the persisted manifest. During service Close the manifest is left
// untouched: a draining daemon's endpoints must come back on restart.
func (s *Service) forgetEndpoint(name string, e *Endpoint) {
	s.mu.Lock()
	if s.endpoints[name] != e {
		s.mu.Unlock()
		return
	}
	delete(s.endpoints, name)
	s.epOrder = removeFromOrder(s.epOrder, name)
	s.mu.Unlock()
	s.persistEndpoints()
}

// jobPipeline resolves a finished job's compiled pipeline.
func (s *Service) jobPipeline(jobID string) (*Pipeline, error) {
	j, ok := s.Job(jobID)
	if !ok {
		return nil, fmt.Errorf("homunculus: no such job %q", jobID)
	}
	pipe, err := j.Result()
	if err != nil {
		return nil, fmt.Errorf("homunculus: job %s: %w", jobID, err)
	}
	return pipe, nil
}

// selectApp picks the application to serve from a pipeline: the named
// one when want is nonempty, otherwise the first carrying a model.
func selectApp(pipe *Pipeline, want string) (*AppResult, error) {
	if pipe == nil {
		return nil, ErrNotDeployable
	}
	var app *AppResult
	for i := range pipe.Apps {
		a := &pipe.Apps[i]
		if want != "" {
			if a.Name == want {
				app = a
				break
			}
			continue
		}
		if a.Model != nil {
			app = a
			break
		}
	}
	if want != "" && app == nil {
		return nil, fmt.Errorf("homunculus: pipeline has no app %q", want)
	}
	if app == nil || app.Model == nil {
		return nil, fmt.Errorf("%w (app %q)", ErrNotDeployable, want)
	}
	return app, nil
}

// Name returns the endpoint's stable route name.
func (e *Endpoint) Name() string { return e.name }

// Platform returns the backend kind of the pipeline that created the
// endpoint.
func (e *Endpoint) Platform() string { return e.platform }

// Created returns when the endpoint started serving.
func (e *Endpoint) Created() time.Time { return e.created }

// Model returns the current stable revision's compiled model (nil once
// the endpoint is closed).
func (e *Endpoint) Model() *ir.Model { return e.ep.Model() }

// Rollout starts serving a finished job's compiled pipeline as a new
// revision behind the configured canary split or shadow mirror. Only
// one rollout may be in progress per endpoint.
func (e *Endpoint) Rollout(jobID string, opts RolloutOptions) (RevisionInfo, error) {
	pipe, err := e.svc.jobPipeline(jobID)
	if err != nil {
		return RevisionInfo{}, err
	}
	return e.rollout(pipe, jobID, opts)
}

// RolloutPipeline rolls out a pipeline compiled out of band.
func (e *Endpoint) RolloutPipeline(pipe *Pipeline, opts RolloutOptions) (RevisionInfo, error) {
	return e.rollout(pipe, "", opts)
}

func (e *Endpoint) rollout(pipe *Pipeline, jobID string, opts RolloutOptions) (RevisionInfo, error) {
	want := opts.App
	if want == "" {
		// Pin to the app the latest revision serves whenever the new
		// pipeline declares it, so a re-compiled multi-model pipeline
		// rolls out the matching application — and fails loudly (via
		// selectApp) if that app came back undeployable, rather than
		// silently serving a different one.
		e.mu.Lock()
		var cur revisionMeta
		maxID := 0
		for id, m := range e.meta {
			if id > maxID {
				maxID, cur = id, m
			}
		}
		e.mu.Unlock()
		if pipe != nil {
			for i := range pipe.Apps {
				if pipe.Apps[i].Name == cur.app {
					want = cur.app
					break
				}
			}
		}
	}
	app, err := selectApp(pipe, want)
	if err != nil {
		return RevisionInfo{}, err
	}
	if e.ep.Config().ValidateRollouts {
		if err := gateRollout(e.platform, app); err != nil {
			return RevisionInfo{}, fmt.Errorf("homunculus: rollout on %s refused: %w", e.name, err)
		}
	}
	if err := opts.Serving.Validate(); err != nil {
		return RevisionInfo{}, fmt.Errorf("homunculus: rollout on %s: %w", e.name, err)
	}
	rev, err := e.ep.Rollout(app.Model, serve.RolloutConfig{
		CanaryPercent: opts.CanaryPercent,
		Shadow:        opts.Shadow,
		Serving:       opts.Serving,
	})
	if err != nil {
		return RevisionInfo{}, fmt.Errorf("homunculus: rollout on %s: %w", e.name, err)
	}
	e.mu.Lock()
	e.meta[rev.ID] = revisionMeta{
		jobID:    jobID,
		app:      app.Name,
		specHash: e.svc.endpointArtifact(pipe, jobID),
	}
	e.mu.Unlock()
	e.svc.persistEndpoints()
	state := RevisionState(serve.RevCanary)
	if opts.Shadow {
		state = serve.RevShadow
	}
	return RevisionInfo{
		ID: rev.ID, JobID: jobID, App: app.Name,
		State: state, CanaryPercent: opts.CanaryPercent, Created: rev.Created, Config: rev.Config(),
	}, nil
}

// Promote makes the in-progress rollout the stable revision: requests
// admitted after Promote returns are served by the promoted revision,
// requests in flight complete where they were admitted, and nothing is
// dropped. The demoted revision stays warm for Rollback (up to the
// endpoint's RetainRetired cap).
func (e *Endpoint) Promote() error {
	if err := e.ep.Promote(); err != nil {
		return err
	}
	e.svc.persistEndpoints()
	return nil
}

// Rollback aborts an in-progress rollout, or — when none is active —
// returns all traffic to the previous stable revision (re-creating its
// runtime if the retention cap had evicted it).
func (e *Endpoint) Rollback() error {
	if err := e.ep.Rollback(); err != nil {
		return err
	}
	e.svc.persistEndpoints()
	return nil
}

// Classify routes one feature vector through the endpoint's current
// revision table and blocks until its class is computed. Sheds with
// ErrOverloaded under backpressure; fails with ErrEndpointClosed once
// draining began.
func (e *Endpoint) Classify(x []float64) (int, error) { return e.ep.Classify(x) }

// ClassifyBatch classifies every vector of xs (each request routed
// independently, exactly as Classify would); classes[i] is -1 for shed
// or failed requests.
func (e *Endpoint) ClassifyBatch(xs [][]float64) (classes []int, dropped int, err error) {
	return e.ep.ClassifyBatch(xs)
}

// View reports the current routing: the stable revision ID, the canary
// (0 if none) with its traffic share, and the shadow (0 if none).
func (e *Endpoint) View() (stable, canary, canaryPercent, shadow int) { return e.ep.View() }

// Revisions lists every revision's lifecycle metadata in rollout order
// without snapshotting the serving runtimes (the Stats field is zero —
// use Stats() when counters are needed).
func (e *Endpoint) Revisions() []RevisionInfo {
	infos, _ := e.join(e.ep.RevisionInfos())
	return infos
}

// Stats snapshots the endpoint: merged metrics (counters and latency
// histograms summed across revisions), the per-revision breakdown, and
// the shadow divergence report.
func (e *Endpoint) Stats() EndpointStats {
	st := e.ep.Stats()
	infos, _ := e.join(st.Revisions)
	return EndpointStats{
		Name:      e.name,
		Platform:  e.platform,
		Revisions: infos,
		Merged:    st.Merged,
		Shadow:    st.Shadow,
	}
}

// join pairs serve's revision rows with each revision's origin (e.meta)
// — the one place the two meet. metas[i] is infos[i]'s origin.
func (e *Endpoint) join(rows []serve.RevisionStats) (infos []RevisionInfo, metas []revisionMeta) {
	e.mu.Lock()
	defer e.mu.Unlock()
	infos = make([]RevisionInfo, len(rows))
	metas = make([]revisionMeta, len(rows))
	for i, r := range rows {
		m := e.meta[r.ID]
		infos[i] = RevisionInfo{
			ID: r.ID, JobID: m.jobID, App: m.app,
			State: r.State, CanaryPercent: r.CanaryPercent,
			Created: r.Created, Warm: r.Warm, Config: r.Config, Stats: r.Stats,
		}
		metas[i] = m
	}
	return infos, metas
}

// RawServingStats is the wire (mergeable) form of serving metrics:
// plain counters plus the log2 latency histogram. Counters from
// different nodes sum exactly; quantiles are derived only after the
// histograms merge (serve.RawStats).
type RawServingStats = serve.RawStats

// RawStats returns the endpoint's merged metrics in wire form — what a
// node ships so `?scope=cluster` stats can be summed across the
// cluster (docs/cluster.md).
func (e *Endpoint) RawStats() RawServingStats { return e.ep.RawStats() }

// Close drains the endpoint (every accepted request across every
// revision is delivered) and removes it from the service's table.
// Idempotent; blocks until the drain completes.
func (e *Endpoint) Close() error {
	e.forget.Do(func() { e.svc.forgetEndpoint(e.name, e) })
	return e.ep.Close()
}
