package homunculus

// Cluster hooks: the seams internal/cluster drives to make N services
// behave as one logical compiler. The fabric attaches a RemoteArtifacts
// source (consulted by the run loop between the local artifact store and
// a cold compile), enables work sharing (queued submissions keep their
// wire form so peers can steal them), and drives delegated executions
// through RemoteJob handles. The invariant every hook preserves: a job's
// identity and terminal durability belong to the node that admitted it —
// delegation moves the compute, never the journal record.

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/alchemy"
	"repro/internal/store"
)

// RemoteArtifacts is the cluster fabric's artifact source. Fetch is
// consulted on the compile path after a local store miss.
// Implementations must verify payload digests before returning — the
// service installs what Fetch hands back.
type RemoteArtifacts interface {
	Fetch(ctx context.Context, hash string) ([]byte, bool)
}

// remoteArtifactsBox wraps the interface so it can sit in an
// atomic.Pointer (set once at boot, read on every compile).
type remoteArtifactsBox struct{ ra RemoteArtifacts }

// SetRemoteArtifacts attaches a peer artifact source. Call before the
// service takes traffic; pass nil to detach.
func (s *Service) SetRemoteArtifacts(ra RemoteArtifacts) {
	if ra == nil {
		s.remote.Store(nil)
		return
	}
	s.remote.Store(&remoteArtifactsBox{ra: ra})
}

// EnableWorkSharing makes queued submissions stealable: Submit retains
// each job's wire form so Backlog can offer it to peers and
// ClaimForSteal can hand it over. Off by default — the retention costs
// one platform marshal per submission.
func (s *Service) EnableWorkSharing() { s.workSharing.Store(true) }

// lookupStored resolves key from the durable artifact store, then from
// cluster peers. A remote hit is installed into the local store (best
// effort) so the cluster converges toward one content-addressed cache.
func (s *Service) lookupStored(ctx context.Context, key string) (*Pipeline, bool) {
	if pipe, ok := s.loadArtifact(key); ok {
		return pipe, true
	}
	box := s.remote.Load()
	if box == nil {
		return nil, false
	}
	payload, ok := box.ra.Fetch(ctx, key)
	if !ok {
		return nil, false
	}
	pipe, err := s.installArtifact(key, payload)
	if err != nil {
		s.storeErr(err)
		return nil, false
	}
	return pipe, true
}

// ExportArtifact returns the canonical pipeline document stored under
// key, from the artifact store or — on an in-memory service — the
// completed flight cache. The bytes are the peer-fetch payload. The
// store checks only frame and digest, so a stored payload that is not
// JSON is quarantined here rather than handed to a peer.
func (s *Service) ExportArtifact(key string) ([]byte, bool) {
	if s.store != nil {
		if raw, err := s.store.Artifacts.Get(key); err == nil {
			if json.Valid(raw) {
				return raw, true
			}
			s.storeErr(s.store.Artifacts.Quarantine(key, "payload is not JSON"))
		}
	}
	if s.cache != nil {
		if pipe, ok := s.cache.peek(key); ok {
			if raw, err := MarshalPipeline(pipe); err == nil {
				return raw, true
			}
		}
	}
	return nil, false
}

// SubmitWire decodes a wire-form submission and admits it like any other
// (bounded queue, cache, journal). The thief side of work stealing:
// execute a peer's spec as a first-class local job.
func (s *Service) SubmitWire(ctx context.Context, wj store.WireJob) (*Job, error) {
	p, o, err := decodeWireJob(wj)
	if err != nil {
		return nil, err
	}
	return s.admit(ctx, p, o)
}

// BacklogJob describes one queued submission a peer may steal.
type BacklogJob struct {
	ID       string `json:"id"`
	Platform string `json:"platform"`
	store.WireJob
}

// Backlog lists queued jobs with a wire form, oldest first — the
// stealable work. Empty unless EnableWorkSharing was called.
func (s *Service) Backlog() []BacklogJob {
	if !s.workSharing.Load() {
		return nil
	}
	jobs := s.Jobs()
	var out []BacklogJob
	for _, j := range jobs {
		j.mu.Lock()
		if j.state == JobQueued && j.wire.Spec != nil && j.ticket != nil {
			out = append(out, BacklogJob{ID: j.id, Platform: j.platform, WireJob: j.wire})
		}
		j.mu.Unlock()
	}
	return out
}

// RemoteJob drives a local job whose compute happens out-of-band — on a
// peer (delegation, stealing) or inline via RunLocal. The job is fully
// registered and journaled on this node: whatever the peer does, the
// terminal transition lands here, under the origin ID, fsynced by the
// usual onFinish hook. Exactly one of Complete/Fail/RunLocal should
// decide the job; later calls lose to finish's exactly-once guard.
type RemoteJob struct {
	svc *Service
	job *Job
	p   *alchemy.Platform
	o   *options
}

// Job returns the underlying local job handle.
func (r *RemoteJob) Job() *Job { return r.job }

// Context returns the job's run context — cancelled when the client
// cancels the job, so a delegation in flight stops polling a peer for a
// result nobody wants.
func (r *RemoteJob) Context() context.Context { return r.job.ctx }

// ID returns the origin-node job ID.
func (r *RemoteJob) ID() string { return r.job.id }

// Hash computes (and memoizes on the job) the submission's content
// address — the key a peer's result is fetched under.
func (r *RemoteJob) Hash() (string, error) {
	if h := r.job.Status().SpecHash; h != "" {
		return h, nil
	}
	key, err := specHash(r.p, r.o.search, r.o.validate, func(m *alchemy.Model) (string, error) {
		return r.svc.fingerprint(m, nil)
	})
	if err != nil {
		return "", err
	}
	r.job.setSpecHash(key)
	return key, nil
}

// Complete finishes the job with a peer-produced artifact payload (the
// canonical pipeline document, already envelope-verified). The payload
// is also installed locally so the result survives restarts and serves
// identical submissions warm.
func (r *RemoteJob) Complete(payload []byte) error {
	key, err := r.Hash()
	if err != nil {
		return err
	}
	pipe, err := r.svc.installArtifact(key, payload)
	if err != nil {
		return fmt.Errorf("homunculus: delegated result for %s: %w", r.job.id, err)
	}
	r.job.setRunning()
	r.job.finish(pipe, nil)
	return nil
}

// Fail finishes the job with the peer's terminal error.
func (r *RemoteJob) Fail(err error) {
	r.job.setRunning()
	r.job.finish(nil, err)
}

// RunLocal executes the job on this node, inline on the calling
// goroutine — the fallback when no peer can (or did) finish it. It
// bypasses the admission queue deliberately: the job was already
// admitted once, and the guarantee that it reaches a terminal state
// outranks the concurrency bound for this one run.
func (r *RemoteJob) RunLocal() { r.svc.run(r.job.ctx, r.job, r.p, r.o) }

// SubmitRemote admits a job for out-of-band execution: registered and
// journaled under a fresh local ID, but never enqueued — the returned
// RemoteJob's owner decides where it runs. This is the origin half of
// queue-full delegation: the local queue is saturated, so the job must
// not consume a slot, yet the client needs a first-class job handle.
func (s *Service) SubmitRemote(ctx context.Context, p *alchemy.Platform, opts ...Option) (*RemoteJob, error) {
	clone, o, err := declare(p, opts)
	if err != nil {
		return nil, err
	}
	j, err := s.mint(ctx, clone)
	if err != nil {
		return nil, err
	}
	s.register(j)
	s.recordSubmission(j, clone, o)
	return &RemoteJob{svc: s, job: j, p: clone, o: o}, nil
}

// ClaimForSteal hands a queued job to a thief: the job is withdrawn from
// the local dispatch queue (losing the race against dispatch returns
// false — a job that started running locally is not stealable) and
// wrapped in a RemoteJob the fabric drives to a terminal state. The
// returned BacklogJob carries the wire form the thief executes.
func (s *Service) ClaimForSteal(id string) (*RemoteJob, BacklogJob, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, BacklogJob{}, false
	}
	j.mu.Lock()
	wj, ticket := j.wire, j.ticket
	queued := j.state == JobQueued
	j.mu.Unlock()
	if !queued || wj.Spec == nil || ticket == nil || !ticket.Cancel() {
		return nil, BacklogJob{}, false
	}
	// From here the local run closure will never fire: this claim owns
	// the job's terminal transition.
	p, o, err := decodeWireJob(wj)
	if err != nil {
		j.finish(nil, fmt.Errorf("homunculus: job %s: %w", id, err))
		return nil, BacklogJob{}, false
	}
	j.setRunning()
	return &RemoteJob{svc: s, job: j, p: p, o: o}, BacklogJob{ID: id, Platform: j.platform, WireJob: wj}, true
}
