// Work sharing, both directions. Delegation (push): a queue-full
// submission becomes a local RemoteJob — registered and journaled under
// an origin ID, never holding a queue slot — whose compute is forwarded
// to the least-loaded live peer. Stealing (pull): an idle node polls the
// busiest peer's backlog and claims one queued job; the origin grants it
// under a lease and reclaims (runs locally) if the thief goes silent.
//
// The invariant both paths preserve: the origin node owns the job's
// identity and terminal transition. Every failure mode — peer dies,
// artifact unfetchable, lease expires — degrades to RunLocal, so a job
// the origin admitted always reaches a terminal state there, under its
// original ID, journaled by the usual hooks.

package cluster

import (
	"context"
	"crypto/rand"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"time"

	"repro/internal/httpapi"

	homunculus "repro"
)

// stolenEntry is the origin-side record of a job leased to a thief.
// token is the secret the thief minted for the lease: a report settles
// the job only if it carries it.
type stolenEntry struct {
	rj        *homunculus.RemoteJob
	thiefID   string
	thiefAddr string
	token     string
	timer     *time.Timer
}

// errNotHolder refuses a steal report that does not come from the lease
// holder; the lease, its timer and the job are left as they were.
var errNotHolder = errors.New("cluster: steal report does not match the lease")

// holds reports whether rep comes from e's thief: it carries the lease
// token, and names the thief's address if it names one at all.
func (e *stolenEntry) holds(rep httpapi.StealReportJSON) bool {
	return subtle.ConstantTimeCompare([]byte(rep.LeaseToken), []byte(e.token)) == 1 &&
		(rep.Addr == "" || rep.Addr == e.thiefAddr)
}

// SubmitFallback is the httpapi queue-full hook: place the shed
// submission on the least-loaded live peer. The returned job is local —
// clients poll it exactly like a queued one.
func (f *Fabric) SubmitFallback(req httpapi.SubmitRequest) (*homunculus.Job, error) {
	target := f.leastLoaded()
	if target == nil {
		return nil, errors.New("cluster: no live peer with queue headroom")
	}
	p, opts, err := req.Declaration()
	if err != nil {
		return nil, err
	}
	// The job context derives from the fabric's: closing the fabric
	// cancels in-flight delegations, whose jobs then reach a terminal
	// (cancelled) state through the usual run path.
	rj, err := f.svc.SubmitRemote(f.ctx, p, opts...)
	if err != nil {
		return nil, err
	}
	f.metrics.delegated.Add(1)
	req.Delegated = true // one hop: the peer sheds with a plain 429, never re-delegates
	go f.runDelegated(rj, target, req)
	return rj.Job(), nil
}

// leastLoaded picks the live peer with queue headroom and the smallest
// backlog, or nil.
func (f *Fabric) leastLoaded() *peer {
	var best *peer
	bestLoad := 0
	peers := f.livePeers(time.Now())
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range peers {
		h := p.health
		if h.QueueDepth > 0 && h.Queued >= h.QueueDepth {
			continue // its queue would shed too
		}
		load := h.Queued + h.Running
		if best == nil || load < bestLoad {
			best, bestLoad = p, load
		}
	}
	return best
}

// runDelegated drives one delegated job to a terminal state: submit on
// the peer, wait, pull the result artifact by content address. Any
// non-terminal failure falls back to running locally.
func (f *Fabric) runDelegated(rj *homunculus.RemoteJob, target *peer, req httpapi.SubmitRequest) {
	ctx := rj.Context()
	remote, err := target.client.SubmitJob(ctx, req)
	if err != nil {
		f.delegateLocal(rj, fmt.Errorf("submit to %s: %w", target.addr, err))
		return
	}
	final, err := target.client.WaitJob(ctx, remote.ID, f.pollInterval())
	if err != nil {
		f.delegateLocal(rj, fmt.Errorf("wait on %s for %s: %w", target.addr, remote.ID, err))
		return
	}
	switch final.State {
	case homunculus.JobDone:
		if f.completeFromPeer(ctx, rj, target.addr) {
			return
		}
		f.delegateLocal(rj, fmt.Errorf("result artifact for %s unfetchable from %s", remote.ID, target.addr))
	case homunculus.JobFailed:
		// A real compile failure is deterministic for the spec — honor it
		// rather than burning a local recompute on the same outcome.
		rj.Fail(fmt.Errorf("cluster: delegated to %s as %s: %s", target.addr, remote.ID, final.Error))
	default: // cancelled remotely without the origin asking: recompute
		f.delegateLocal(rj, fmt.Errorf("peer %s cancelled %s", target.addr, remote.ID))
	}
}

// delegateLocal is the delegation fallback: log why and run inline.
func (f *Fabric) delegateLocal(rj *homunculus.RemoteJob, cause error) {
	f.metrics.delegatedLocal.Add(1)
	f.cfg.Logf("cluster: delegation for %s fell back to local run: %v", rj.ID(), cause)
	rj.RunLocal()
}

// completeFromPeer fetches the job's result artifact — preferring addr,
// then any live peer — and finishes the job with it.
func (f *Fabric) completeFromPeer(ctx context.Context, rj *homunculus.RemoteJob, addr string) bool {
	hash, err := rj.Hash()
	if err != nil {
		return false
	}
	payload, ok := f.fetchFrom(ctx, addr, hash)
	if !ok {
		payload, ok = f.Fetch(ctx, hash)
	}
	if !ok {
		return false
	}
	return rj.Complete(payload) == nil
}

// pollInterval paces remote job polls off the heartbeat so tests with
// tight heartbeats converge fast.
func (f *Fabric) pollInterval() time.Duration {
	p := f.cfg.Heartbeat / 4
	if p < 20*time.Millisecond {
		p = 20 * time.Millisecond
	}
	if p > 500*time.Millisecond {
		p = 500 * time.Millisecond
	}
	return p
}

// stealLoop is the thief side: when this node is idle, pull one job
// from the busiest peer's backlog and execute it here.
func (f *Fabric) stealLoop() {
	defer f.wg.Done()
	t := time.NewTicker(f.cfg.StealInterval)
	defer t.Stop()
	for {
		select {
		case <-f.ctx.Done():
			return
		case <-t.C:
			f.stealOnce()
		}
	}
}

// stealOnce makes one steal attempt if this node has idle capacity and
// a peer is backed up.
func (f *Fabric) stealOnce() {
	queued, running := f.svc.Stats()
	if queued > 0 || running >= f.svc.Options().MaxInFlight {
		return // not idle: local work first
	}
	victim := f.busiest()
	if victim == nil {
		return
	}
	f.metrics.stealsTried.Add(1)
	var backlog httpapi.BacklogJSON
	if err := victim.client.Get(f.ctx, "/v1/cluster/backlog", &backlog); err != nil || len(backlog.Jobs) == 0 {
		return
	}
	var tok [16]byte
	_, _ = rand.Read(tok[:]) // crypto/rand.Read never fails since Go 1.24
	var grant httpapi.StealGrantJSON
	reqBody := httpapi.StealRequestJSON{JobID: backlog.Jobs[0].ID, ThiefID: f.id, ThiefAddr: f.cfg.SelfAddr, LeaseToken: hex.EncodeToString(tok[:])}
	if err := victim.client.Post(f.ctx, "/v1/cluster/steal", reqBody, &grant); err != nil {
		return // lost the claim race (409) or the victim went away
	}
	f.metrics.stealsExecuted.Add(1)
	f.executeStolen(victim, grant, reqBody.LeaseToken)
}

// busiest returns the live peer with the deepest backlog, or nil if no
// peer has queued work.
func (f *Fabric) busiest() *peer {
	var best *peer
	peers := f.livePeers(time.Now())
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range peers {
		if p.health.Queued == 0 {
			continue
		}
		if best == nil || p.health.Queued > best.health.Queued {
			best = p
		}
	}
	return best
}

// executeStolen runs a granted job locally as a first-class submission
// and reports the terminal state back to the origin under the origin's
// job ID, with the lease token its steal request carried.
func (f *Fabric) executeStolen(origin *peer, grant httpapi.StealGrantJSON, token string) {
	rep := httpapi.StealReportJSON{JobID: grant.JobID, Addr: f.cfg.SelfAddr, LeaseToken: token}
	job, err := f.svc.SubmitWire(f.ctx, grant.WireJob)
	if err != nil {
		rep.State = "failed"
		rep.Error = err.Error()
	} else if _, werr := job.Wait(f.ctx); werr != nil {
		if f.ctx.Err() != nil {
			return // shutting down: stay silent, the origin's lease reclaims
		}
		rep.State = "failed"
		rep.Error = werr.Error()
	} else {
		rep.State = "done"
		rep.SpecHash = job.Status().SpecHash
	}
	if err := origin.client.Post(f.ctx, "/v1/cluster/stolen", rep, nil); err != nil {
		f.cfg.Logf("cluster: stolen report for %s to %s failed: %v", grant.JobID, origin.addr, err)
	}
}

// grantSteal is the origin side of POST /v1/cluster/steal: claim the
// queued job out of the dispatch queue and lease it to the thief.
func (f *Fabric) grantSteal(req httpapi.StealRequestJSON) (httpapi.StealGrantJSON, bool) {
	rj, wire, ok := f.svc.ClaimForSteal(req.JobID)
	if !ok {
		return httpapi.StealGrantJSON{}, false
	}
	e := &stolenEntry{rj: rj, thiefID: req.ThiefID, thiefAddr: req.ThiefAddr, token: req.LeaseToken}
	e.timer = time.AfterFunc(f.cfg.StealLease, func() { f.reclaim(req.JobID) })
	f.mu.Lock()
	f.stolen[req.JobID] = e
	f.mu.Unlock()
	f.metrics.stolenGranted.Add(1)
	return httpapi.StealGrantJSON{
		JobID:    req.JobID,
		Platform: wire.Platform,
		WireJob:  wire.WireJob,
		LeaseMS:  f.cfg.StealLease.Milliseconds(),
	}, true
}

// reclaim fires when a thief's lease expires without a report: the
// origin takes the job back and runs it locally. A report that arrives
// after reclaim finds no ledger entry and is discarded — the local run
// owns the terminal transition now.
func (f *Fabric) reclaim(jobID string) {
	f.mu.Lock()
	e, ok := f.stolen[jobID]
	delete(f.stolen, jobID)
	f.mu.Unlock()
	if !ok {
		return
	}
	f.metrics.reclaimed.Add(1)
	f.cfg.Logf("cluster: steal lease for %s expired (thief %s); running locally", jobID, e.thiefAddr)
	e.rj.RunLocal()
}

// handleStolenReport is the origin side of POST /v1/cluster/stolen:
// resolve the leased-out job with the thief's terminal verdict. Only
// the lease holder's report does (errNotHolder otherwise), and a result
// is fetched from the address the lease was granted to, never from one
// the report names.
func (f *Fabric) handleStolenReport(rep httpapi.StealReportJSON) error {
	f.mu.Lock()
	e, ok := f.stolen[rep.JobID]
	if ok && !e.holds(rep) {
		f.mu.Unlock()
		return errNotHolder
	}
	delete(f.stolen, rep.JobID)
	f.mu.Unlock()
	if !ok {
		// Lease already reclaimed (or unknown job): the local run owns
		// the terminal transition; the thief's work is simply discarded.
		return fmt.Errorf("cluster: job %s is not leased out", rep.JobID)
	}
	e.timer.Stop()
	if rep.State != "done" {
		if rep.Error == "" {
			rep.Error = "unspecified failure"
		}
		e.rj.Fail(fmt.Errorf("cluster: stolen by %s: %s", e.thiefAddr, rep.Error))
		f.metrics.stolenDone.Add(1)
		return nil
	}
	// Fetch the result bounded by our own timeout, not the thief's
	// request context — the thief reporting and disconnecting must not
	// abort the origin's completion.
	ctx, cancel := context.WithTimeout(f.ctx, 2*f.cfg.FetchTimeout)
	defer cancel()
	if f.completeFromPeer(ctx, e.rj, e.thiefAddr) {
		f.metrics.stolenDone.Add(1)
		return nil
	}
	f.metrics.reclaimed.Add(1)
	f.cfg.Logf("cluster: stolen result for %s unfetchable from %s; recomputing locally", rep.JobID, e.thiefAddr)
	go e.rj.RunLocal()
	return nil
}
