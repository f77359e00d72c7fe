package homunculus

// Durability: the wiring between the Service and internal/store. A
// service opened with a StateDir journals every job transition
// write-ahead, writes each compiled pipeline through to the on-disk
// content-addressed artifact store, and persists the endpoint table; on
// the next Open the three are replayed — interrupted jobs re-run under
// their original IDs, completed results serve as warm cache hits with
// zero search events, and named endpoints resume routing their restored
// revision history.
//
// The durability layer is strictly best-effort around the compilation
// path: a journal append or artifact write that fails (disk full, torn
// rename) is logged and counted (StoreErrors) but never fails the job —
// a degraded store costs recoverability, not availability. The inverse
// holds on reads: an artifact that fails its digest check or does not
// decode is quarantined and recompiled, never served.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"time"

	"repro/alchemy"
	"repro/internal/ir"
	"repro/internal/serve"
	"repro/internal/store"
)

// RecoveryReport describes what a durable Open found and restored.
type RecoveryReport struct {
	// JournalRecords and JournalSkipped count the replayed journal's
	// parseable records and its tolerated corrupt lines (a torn final
	// record is the expected debris of a crash mid-append).
	JournalRecords int
	JournalSkipped int
	// JobsRecovered lists completed jobs whose results survive in the
	// artifact store — identical resubmissions are warm cache hits.
	JobsRecovered []string
	// JobsRequeued lists jobs that were queued or running at crash time
	// and were re-enqueued for compilation under their original IDs.
	JobsRequeued []string
	// JobsSkipped lists interrupted jobs that could not be re-enqueued:
	// their spec had no wire form (anonymous data loaders), failed to
	// parse, or the admission queue rejected them.
	JobsSkipped []string
	// EndpointsRestored and EndpointsSkipped partition the manifest's
	// endpoints by whether their revision history could be rebuilt.
	EndpointsRestored []string
	EndpointsSkipped  []string
}

// Recovery returns the boot recovery report of a durable service (zero
// on an in-memory service). The returned slices are read-only.
func (s *Service) Recovery() RecoveryReport { return s.recovery }

// StoreErrors counts durability-layer failures absorbed since Open —
// journal appends, artifact writes, or manifest rewrites that failed
// without failing the operation they shadowed. A growing count means
// results are being served correctly but will not survive a restart.
func (s *Service) StoreErrors() uint64 { return s.storeErrs.Load() }

// storeErr records one absorbed durability failure.
func (s *Service) storeErr(err error) {
	s.storeErrs.Add(1)
	log.Printf("homunculus: store: %v", err)
}

// journal appends one record to the write-ahead journal (no-op on an
// in-memory service; failures are absorbed).
func (s *Service) journal(rec store.Record, sync bool) {
	if s.store == nil {
		return
	}
	if err := s.store.Journal.Append(rec, sync); err != nil {
		s.storeErr(fmt.Errorf("journal %s %s: %w", rec.Op, rec.Job, err))
	}
}

// recordSubmission writes a job's admission record ahead of any work
// and, when the cluster fabric enabled work sharing, stashes the wire
// form on the job so a peer can steal it while queued — the one place a
// submission is encoded. The journal record carries the wire job when
// there is one (catalog data loaders); submissions with anonymous loaders
// journal spec-less and are reported, not recompiled, after a crash.
// Written without fsync: the OS page cache survives process death
// (SIGKILL, panic), and syncing every admission would put a disk flush on
// the sub-millisecond Submit path — only an OS crash can lose the tail,
// and the journal's replay tolerates exactly that debris.
func (s *Service) recordSubmission(j *Job, p *alchemy.Platform, o *options) {
	sharing := s.workSharing.Load()
	if s.store == nil && !sharing {
		return
	}
	wj, err := encodeWireJob(p, o) // zero when there is no wire form
	if err == nil && sharing {
		j.setWire(wj)
	}
	if s.store != nil {
		s.journal(store.Record{Op: store.OpSubmitted, Job: j.id, Platform: j.platform, WireJob: wj}, false)
	}
}

// journalRefused closes the trace of a job the queue refused after its
// submission was journaled, so a replay never revives a job its caller
// was told failed. Unsynced like the submission it closes: a burst of
// refusals must not cost a disk flush each.
func (s *Service) journalRefused(j *Job, err error) {
	s.journal(store.Record{Op: store.OpFailed, Job: j.id, Error: err.Error()}, false)
}

// journalFinish is the Job.onFinish hook: it records the terminal
// transition, fsynced — a job a client observed as done must still be
// done after a crash.
func (s *Service) journalFinish(j *Job) {
	st := j.Status()
	rec := store.Record{Job: st.ID, SpecHash: st.SpecHash}
	switch st.State {
	case JobDone:
		rec.Op = store.OpDone
	case JobCancelled:
		rec.Op = store.OpCancelled
	default:
		rec.Op = store.OpFailed
	}
	if st.Err != nil {
		rec.Error = st.Err.Error()
	}
	s.journal(rec, true)
}

// loadArtifact is the one artifact read: store → parse. The store checks
// the envelope's frame and digest and quarantines a failure; a payload
// that passes them but is not a pipeline document — not JSON, or a model
// that fails validation — is quarantined here the same way. Either way a
// false return means "compile it again" (for an endpoint revision,
// "restore it cold").
func (s *Service) loadArtifact(key string) (*Pipeline, bool) {
	if s.store == nil {
		return nil, false
	}
	raw, err := s.store.Artifacts.Get(key)
	if err != nil {
		if !errors.Is(err, store.ErrNotFound) {
			s.storeErr(fmt.Errorf("artifact %s: %w", key, err))
		}
		return nil, false
	}
	pipe, err := UnmarshalPipeline(raw)
	if err != nil {
		s.storeErr(s.store.Artifacts.Quarantine(key, err.Error()))
		return nil, false
	}
	return pipe, true
}

// putArtifact is the one artifact write (best effort — a store failure
// degrades durability, never the operation it shadows).
func (s *Service) putArtifact(key string, raw []byte) bool {
	if s.store == nil {
		return false
	}
	if err := s.store.Artifacts.Put(key, raw); err != nil {
		s.storeErr(fmt.Errorf("artifact %s: %w", key, err))
		return false
	}
	return true
}

// installArtifact takes an already-verified payload from a peer — a
// fetch on a local miss, a delegated or stolen job's result: parsed
// once, written through to the store, and planted in the memory cache so
// an identical submission is a warm hit without touching disk.
func (s *Service) installArtifact(key string, payload []byte) (*Pipeline, error) {
	pipe, err := UnmarshalPipeline(payload)
	if err != nil {
		return nil, fmt.Errorf("homunculus: install artifact %s: %w", key, err)
	}
	s.putArtifact(key, payload)
	if s.cache != nil {
		s.cache.insert(key, pipe)
	}
	return pipe, nil
}

// storeArtifact writes a compiled pipeline through to the artifact
// store.
func (s *Service) storeArtifact(key string, pipe *Pipeline) {
	if s.store == nil {
		return
	}
	raw, err := MarshalPipeline(pipe)
	if err != nil {
		s.storeErr(fmt.Errorf("serialize artifact %s: %w", key, err))
		return
	}
	s.putArtifact(key, raw)
}

// endpointArtifact ensures an endpoint revision's pipeline is in the
// artifact store and returns its key: the compilation's content address
// when the pipeline came from a job, otherwise the hash of the canonical
// pipeline document (out-of-band pipelines have no spec to hash). An
// empty return means the revision will not survive a restart.
func (s *Service) endpointArtifact(pipe *Pipeline, jobID string) string {
	if s.store == nil {
		return ""
	}
	key := ""
	if jobID != "" {
		if j, ok := s.Job(jobID); ok {
			key = j.Status().SpecHash
		}
	}
	raw, err := MarshalPipeline(pipe)
	if err != nil {
		s.storeErr(fmt.Errorf("serialize endpoint pipeline: %w", err))
		return ""
	}
	if key == "" {
		sum := sha256.Sum256(raw)
		key = hex.EncodeToString(sum[:])
	}
	if !s.store.Artifacts.Has(key) && !s.putArtifact(key, raw) {
		return ""
	}
	return key
}

// configDocument renders a serving config as its manifest document.
func configDocument(c ServingConfig) json.RawMessage {
	raw, _ := c.Canonical() // cannot fail: every stored config passed Validate
	return raw
}

// parseConfigDocument reads a manifest config document back, validated —
// the disk is as untrusted as the wire. A version-1 manifest spelled the
// knobs flat, with max_delay_set beside max_delay_ns: the same keys
// otherwise, so the record decodes as a ServingConfig and only the delay
// is translated, to what the version-1 service actually ran. A positive
// delay without max_delay_set came from the flat option, which never
// engaged a hold, and reads back absent.
func parseConfigDocument(raw json.RawMessage, manifestVersion int) (ServingConfig, error) {
	if manifestVersion != 1 {
		return ParseServingConfig(raw)
	}
	var v1 struct {
		ServingConfig
		MaxDelaySet bool `json:"max_delay_set"`
	}
	if err := json.Unmarshal(raw, &v1); err != nil {
		return ServingConfig{}, fmt.Errorf("parse version-1 options: %w", err)
	}
	c := v1.ServingConfig
	switch {
	case v1.MaxDelaySet && c.MaxDelayNS == nil:
		c.MaxDelayNS = new(int64)
	case !v1.MaxDelaySet && c.MaxDelayNS != nil && *c.MaxDelayNS > 0:
		c.MaxDelayNS = nil
	}
	return c, c.Validate()
}

// persistEndpoints rewrites the endpoint manifest from the live table.
// Called after every endpoint lifecycle operation; skipped during Close
// (draining is not deletion — the manifest is what the next Open
// restores).
func (s *Service) persistEndpoints() {
	if s.store == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	eps := make([]*Endpoint, 0, len(s.epOrder))
	for _, name := range s.epOrder {
		eps = append(eps, s.endpoints[name])
	}
	s.mu.Unlock()
	m := store.Manifest{Endpoints: make([]store.EndpointRecord, 0, len(eps))}
	for _, e := range eps {
		m.Endpoints = append(m.Endpoints, e.record())
	}
	if err := s.store.SaveManifest(m); err != nil {
		s.storeErr(fmt.Errorf("endpoint manifest: %w", err))
	}
}

// record renders the endpoint's persisted form.
func (e *Endpoint) record() store.EndpointRecord {
	rec := store.EndpointRecord{
		Name:            e.name,
		Platform:        e.platform,
		CreatedUnixNano: e.created.UnixNano(),
	}
	rec.Stable, rec.Canary, rec.CanaryPercent, rec.Shadow = e.ep.View()
	rec.Options = configDocument(e.ep.Config())
	infos, metas := e.join(e.ep.RevisionInfos())
	for i, r := range infos {
		rec.Revisions = append(rec.Revisions, store.RevisionRecord{
			ID: r.ID, JobID: r.JobID, App: r.App, SpecHash: metas[i].specHash,
			State: string(r.State), CanaryPercent: r.CanaryPercent,
			CreatedUnixNano: r.Created.UnixNano(), Options: configDocument(r.Config),
		})
	}
	return rec
}

// recover opens the state directory and replays it into the freshly
// constructed service: endpoints first (synchronous, read-only), then
// the journal is compacted down to the still-live submissions, then
// interrupted jobs re-enter the admission queue.
func (s *Service) recover(dir string, fs store.FS) error {
	st, records, skipped, err := store.Open(dir, fs)
	if err != nil {
		return err
	}
	s.store = st
	s.recovery.JournalRecords = len(records)
	s.recovery.JournalSkipped = skipped

	// Reduce the journal to one trace per job: its admission record and
	// its latest operation.
	type jobTrace struct {
		submitted *store.Record
		lastOp    string
		specHash  string
	}
	traces := map[string]*jobTrace{}
	var order []string
	maxID := 0
	for i := range records {
		r := &records[i]
		t := traces[r.Job]
		if t == nil {
			t = &jobTrace{}
			traces[r.Job] = t
			order = append(order, r.Job)
		}
		if r.Op == store.OpSubmitted && t.submitted == nil {
			t.submitted = r
		}
		t.lastOp = r.Op
		if r.SpecHash != "" {
			t.specHash = r.SpecHash
		}
		var n int
		if _, err := fmt.Sscanf(r.Job, "job-%d", &n); err == nil && n > maxID {
			maxID = n
		}
	}
	// New submissions number past every journaled job, so recovered and
	// fresh IDs never collide.
	s.nextID = maxID

	type pendingJob struct {
		id string
		p  *alchemy.Platform
		o  *options
	}
	var requeue []pendingJob
	var keep []store.Record
	for _, id := range order {
		t := traces[id]
		switch t.lastOp {
		case store.OpDone:
			if t.specHash != "" && st.Artifacts.Has(t.specHash) {
				s.recovery.JobsRecovered = append(s.recovery.JobsRecovered, id)
			}
		case store.OpFailed, store.OpCancelled:
			// Terminal without a result: nothing to recover, and the
			// compaction below drops the trace.
		default:
			// Queued or running when the process died.
			if t.submitted == nil || len(t.submitted.Spec) == 0 || len(t.submitted.Search) == 0 {
				s.storeErr(fmt.Errorf("job %s was interrupted but has no recoverable spec (anonymous data loader?)", id))
				s.recovery.JobsSkipped = append(s.recovery.JobsSkipped, id)
				continue
			}
			p, o, derr := decodeWireJob(t.submitted.WireJob)
			if derr != nil {
				s.storeErr(fmt.Errorf("job %s: %w", id, derr))
				s.recovery.JobsSkipped = append(s.recovery.JobsSkipped, id)
				continue
			}
			requeue = append(requeue, pendingJob{id: id, p: p, o: o})
			keep = append(keep, *t.submitted)
		}
	}

	if m, merr := st.LoadManifest(); merr != nil {
		s.storeErr(fmt.Errorf("endpoint manifest: %w", merr))
	} else {
		for _, rec := range m.Endpoints {
			if rerr := s.restoreEndpoint(rec, m.Version); rerr != nil {
				s.storeErr(fmt.Errorf("restore endpoint %q: %w", rec.Name, rerr))
				s.recovery.EndpointsSkipped = append(s.recovery.EndpointsSkipped, rec.Name)
				continue
			}
			s.recovery.EndpointsRestored = append(s.recovery.EndpointsRestored, rec.Name)
		}
	}

	// Compact before the requeued jobs can append: the journal shrinks to
	// the live admissions, and every terminal record that follows lands
	// after the compacted base.
	if cerr := st.Journal.Compact(keep); cerr != nil {
		s.storeErr(fmt.Errorf("compact journal: %w", cerr))
	}

	// Interrupted jobs re-enter under their original IDs: admit minus ID
	// assignment and re-journaling (the compacted journal has the record).
	for _, pj := range requeue {
		j := s.openJob(context.Background(), pj.id, pj.p)
		if qerr := s.enqueue(j, pj.p, pj.o); qerr != nil {
			s.storeErr(fmt.Errorf("requeue job %s: %w", pj.id, qerr))
			s.recovery.JobsSkipped = append(s.recovery.JobsSkipped, pj.id)
			continue
		}
		s.register(j)
		s.recovery.JobsRequeued = append(s.recovery.JobsRequeued, pj.id)
	}
	return nil
}

// restoreEndpoint rebuilds one named endpoint from its manifest record,
// loading each revision's model out of the artifact store. Every config
// document is validated before anything is built from it. A version-3
// revision document is the one its runtime was built from; versions 1
// and 2 stored the rollout's override, which inherits the endpoint's
// document as it did when those files were written.
func (s *Service) restoreEndpoint(rec store.EndpointRecord, manifestVersion int) error {
	cfg, err := parseConfigDocument(rec.Options, manifestVersion)
	if err != nil {
		return err
	}
	revs := make([]serve.RestoreRevision, 0, len(rec.Revisions))
	meta := make(map[int]revisionMeta, len(rec.Revisions))
	for _, rr := range rec.Revisions {
		rcfg, err := parseConfigDocument(rr.Options, manifestVersion)
		if err != nil {
			return fmt.Errorf("revision %d: %w", rr.ID, err)
		}
		if manifestVersion < 3 {
			rcfg = rcfg.Inherit(cfg)
		}
		state := serve.RevisionState(rr.State)
		model := s.revisionModel(rr)
		if model == nil && (state == serve.RevCanary || state == serve.RevShadow) {
			// A live rollout whose artifact did not survive restores as a
			// retired, cold revision — the endpoint keeps serving its
			// stable traffic rather than disappearing.
			s.storeErr(fmt.Errorf("endpoint %q revision %d: rollout artifact %q unavailable, restoring it retired", rec.Name, rr.ID, rr.SpecHash))
			state = serve.RevRetired
		}
		revs = append(revs, serve.RestoreRevision{
			ID: rr.ID, Model: model, Config: rcfg,
			State: state, CanaryPercent: rr.CanaryPercent,
			Created: time.Unix(0, rr.CreatedUnixNano),
		})
		meta[rr.ID] = revisionMeta{jobID: rr.JobID, app: rr.App, specHash: rr.SpecHash}
	}
	sep, err := serve.RestoreEndpoint(rec.Name, cfg, revs)
	if err != nil {
		return err
	}
	e := &Endpoint{
		name:     rec.Name,
		platform: rec.Platform,
		created:  time.Unix(0, rec.CreatedUnixNano),
		svc:      s,
		ep:       sep,
		meta:     meta,
	}
	s.mu.Lock()
	if _, dup := s.endpoints[rec.Name]; dup {
		s.mu.Unlock()
		_ = sep.Close()
		return fmt.Errorf("duplicate endpoint name in manifest")
	}
	s.endpoints[rec.Name] = e
	s.epOrder = append(s.epOrder, rec.Name)
	s.mu.Unlock()
	return nil
}

// revisionModel loads one restored revision's model from the artifact
// store; nil (cold revision) when the artifact is gone, corrupt, or no
// longer carries the app.
func (s *Service) revisionModel(rr store.RevisionRecord) *ir.Model {
	if rr.SpecHash == "" {
		return nil
	}
	pipe, ok := s.loadArtifact(rr.SpecHash)
	if !ok {
		return nil
	}
	app, err := selectApp(pipe, rr.App)
	if err != nil {
		s.storeErr(fmt.Errorf("revision artifact %s app %q: %w", rr.SpecHash, rr.App, err))
		return nil
	}
	return app.Model
}
