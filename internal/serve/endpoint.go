package serve

// Endpoint is the revisioned serving layer over the deployment Runtime:
// a stable named route whose traffic can be moved between *revisions*
// (each a full Runtime over one compiled model) without dropping a
// request. This is what lets the compiler's continuous-recompilation
// story (re-search as traffic drifts, then swap the data-plane model)
// happen on live traffic: the routing table is an immutable value behind
// an atomic.Pointer, so a rollout, promote, or rollback is one pointer
// store — requests already routed finish on the revision that admitted
// them, requests admitted afterwards see the new table, and nothing is
// ever torn down while it still holds traffic. Retired revisions stay
// warm for instant rollback up to ServingConfig.RetainRetired; beyond
// the cap their runtimes close and a rollback that reaches one
// re-creates the runtime from the revision's model on the spot.
//
// Traffic splitting is deterministic: request N of the endpoint goes to
// the canary iff splitmix64(N) mod 100 < CanaryPercent, so a fixed-seed
// replay reproduces the exact same stable/canary partition on every run.
// A shadow rollout mirrors traffic instead of splitting it: every
// classified request is re-scored asynchronously on the shadow revision
// and the (primary, shadow) class pair is tallied in a divergence
// matrix, while the caller only ever sees the primary answer. The
// steady-state classify path without a shadow stays allocation-free —
// routing adds one atomic pointer load (plus one counter increment and a
// hash while a canary is live) to the Runtime's pooled path; the routing
// table caches each live revision's runtime pointer so the hot path
// never touches revision state.
//
// RestoreEndpoint rebuilds an endpoint — revision history, routing,
// canary/shadow config — from persisted state (the daemon's endpoint
// manifest, internal/store), which is how named endpoints survive a
// crash or restart.

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
)

var (
	// ErrRolloutActive rejects a Rollout while another revision is
	// already being rolled out — promote or roll back first.
	ErrRolloutActive = errors.New("serve: a rollout is already in progress")
	// ErrNoRollout rejects Promote when no rollout is in progress.
	ErrNoRollout = errors.New("serve: no rollout in progress")
	// ErrNoRollback rejects Rollback when there is neither a rollout to
	// abort nor a previous stable revision to return to.
	ErrNoRollback = errors.New("serve: no revision to roll back to")
)

// mirrorDepth bounds concurrent shadow mirrors — a Classify vector or a
// whole ClassifyBatch each take one: excess mirrors are shed (counted in
// the divergence report, in vectors) rather than queued behind a slow
// shadow — the primary path must never wait on its shadow.
const mirrorDepth = 64

// splitmix64 is the traffic splitter's hash (the same finalizer the BO
// forest uses for per-tree RNG seeding): it turns the endpoint's request
// sequence number into a well-mixed word, so "CanaryPercent of traffic"
// is an even, deterministic slice rather than a coarse modulus stripe.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Revision is one deployed model generation of an endpoint. Its runtime
// serves while the revision routes traffic and stays warm after
// retirement until the retention cap pushes it out; the model is kept
// either way so a cold revision can be revived.
type Revision struct {
	// ID is the endpoint-local revision number, starting at 1.
	ID int
	// Created is when the revision was rolled out.
	Created time.Time

	// model is the revision's compiled model; immutable after creation.
	model *ir.Model
	// cfg is the revision's effective serving document — a rollout's
	// override merged over the endpoint's document, not resolved — that
	// its runtime is built from, now or on revival after the retention
	// cap closed it. Immutable after creation.
	cfg ServingConfig

	// rt is the live runtime, nil while the revision is cold. Lifecycle
	// transitions serialize on the endpoint's mu; the atomic makes
	// unlocked reads safe.
	rt atomic.Pointer[Runtime]

	// state and canaryPercent are display metadata guarded by the
	// endpoint's mu; the hot path never reads them.
	state         RevisionState
	canaryPercent int
}

// Config returns the revision's effective serving document.
func (r *Revision) Config() ServingConfig { return r.cfg }

// RevisionState is a revision's place in the endpoint lifecycle.
type RevisionState string

const (
	// RevStable is the revision serving the endpoint's main traffic.
	RevStable RevisionState = "stable"
	// RevCanary is a rollout receiving a weighted slice of traffic.
	RevCanary RevisionState = "canary"
	// RevShadow is a rollout scoring mirrored traffic off the record.
	RevShadow RevisionState = "shadow"
	// RevRetired no longer receives traffic; it stays warm for rollback
	// until the retention cap (ServingConfig.RetainRetired) evicts its
	// runtime.
	RevRetired RevisionState = "retired"
)

// revTable is the endpoint's immutable routing state. Every lifecycle
// operation builds a new table and publishes it with one atomic store;
// the classify path loads it once per request and never blocks. Runtime
// pointers are cached in the table so the hot path stays free of the
// revision's own (mutable, retention-capped) runtime slot.
type revTable struct {
	stable   *Revision
	stableRT *Runtime
	// rollout is the one in-progress revision (nil when none) and
	// rolloutRT its runtime. A nil shadow makes it a canary taking
	// percent of the requests; a non-nil shadow makes it a shadow
	// scoring mirrored traffic into that tally.
	rollout   *Revision
	rolloutRT *Runtime
	percent   uint64
	shadow    *divergence
}

// canary reports whether the table splits traffic to its rollout.
func (t *revTable) canary() bool { return t.rollout != nil && t.shadow == nil }

// divergence tallies shadow-vs-primary outcomes for one shadow rollout.
type divergence struct {
	revision int
	mirrored atomic.Uint64
	shed     atomic.Uint64
	errors   atomic.Uint64
	agree    atomic.Uint64
	disagree atomic.Uint64
	// pairs is the flattened [primaryClasses x shadowClasses] confusion
	// matrix of mirrored requests.
	pairs         []atomic.Uint64
	primaryStates int
	shadowStates  int
}

func newDivergence(revision, primaryClasses, shadowClasses int) *divergence {
	return &divergence{
		revision:      revision,
		pairs:         make([]atomic.Uint64, primaryClasses*shadowClasses),
		primaryStates: primaryClasses,
		shadowStates:  shadowClasses,
	}
}

// record tallies one mirrored vector once its shadow score arrives;
// failed means the shadow shed it or could not classify it.
func (d *divergence) record(primary, shadow int, failed bool) {
	d.mirrored.Add(1)
	if failed {
		d.errors.Add(1)
		return
	}
	if primary == shadow {
		d.agree.Add(1)
	} else {
		d.disagree.Add(1)
	}
	if primary >= 0 && primary < d.primaryStates && shadow >= 0 && shadow < d.shadowStates {
		d.pairs[primary*d.shadowStates+shadow].Add(1)
	}
}

// DivergenceStats is the shadow comparison report of a rollout.
type DivergenceStats struct {
	// Revision is the shadow revision the report compares against.
	Revision int
	// Mirrored counts vectors scored on the shadow; Shed counts vectors
	// whose mirror was dropped because the mirror pool was saturated (the
	// primary path never waits; a ClassifyBatch is mirrored, or shed, as
	// one unit); Errors counts vectors the shadow shed or failed on.
	Mirrored, Shed, Errors uint64
	// Agreed and Disagreed partition the successfully mirrored requests
	// by whether the shadow matched the primary's class.
	Agreed, Disagreed uint64
	// Pairs[p][s] counts mirrored requests the primary classified p and
	// the shadow classified s — the off-diagonal cells are exactly the
	// per-class-pair disagreements.
	Pairs [][]uint64
}

func (d *divergence) snapshot() *DivergenceStats {
	out := &DivergenceStats{
		Revision:  d.revision,
		Mirrored:  d.mirrored.Load(),
		Shed:      d.shed.Load(),
		Errors:    d.errors.Load(),
		Agreed:    d.agree.Load(),
		Disagreed: d.disagree.Load(),
		Pairs:     make([][]uint64, d.primaryStates),
	}
	for p := 0; p < d.primaryStates; p++ {
		out.Pairs[p] = make([]uint64, d.shadowStates)
		for s := 0; s < d.shadowStates; s++ {
			out.Pairs[p][s] = d.pairs[p*d.shadowStates+s].Load()
		}
	}
	return out
}

// RevisionStats is one revision's row in an endpoint stats snapshot.
type RevisionStats struct {
	ID      int
	State   RevisionState
	Created time.Time
	// CanaryPercent is the traffic slice of a RevCanary revision.
	CanaryPercent int
	// Warm reports whether the revision holds a live runtime (retired
	// revisions beyond the retention cap run cold).
	Warm bool
	// Config is the revision's effective serving document.
	Config ServingConfig
	Stats  Stats
}

// EndpointStats is a point-in-time snapshot of an endpoint: the merged
// serving metrics across every revision plus the per-revision breakdown
// and the (current or most recent) shadow divergence report.
type EndpointStats struct {
	Name string
	// Revisions lists every revision in rollout order with its own stats.
	Revisions []RevisionStats
	// Merged sums the counters and latency histograms of every warm
	// revision; its quantiles are computed over the combined histogram
	// and its throughput over the endpoint's uptime. Counters of
	// retention-evicted runtimes are not included.
	Merged Stats
	// Shadow is the divergence report of the live shadow rollout, or the
	// most recently finished one; nil if the endpoint never had one.
	Shadow *DivergenceStats
}

// Endpoint is a stable named serving route over an ordered history of
// revisions. All exported methods are safe for concurrent use; lifecycle
// operations (Rollout/Promote/Rollback/Close) serialize on an internal
// mutex while the classify path stays lock-free.
type Endpoint struct {
	name  string
	start time.Time

	table atomic.Pointer[revTable]
	seq   atomic.Uint64

	// mirrorSem bounds concurrent shadow mirrors; Close drains it by
	// acquiring every slot.
	mirrorSem chan struct{}

	mu sync.Mutex
	// cfg is the endpoint's serving document: what rollouts inherit
	// from, what retention reads, and what Reconfigure replaces.
	cfg        ServingConfig
	revs       []*Revision
	nextID     int
	prevStable []*Revision // promote history, for rollback
	lastShadow *divergence
	closed     bool
}

// NewEndpoint starts an endpoint serving model as revision 1. cfg is the
// endpoint's serving document; each rollout may override its fields.
func NewEndpoint(name string, model *ir.Model, cfg ServingConfig) (*Endpoint, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: endpoint needs a name")
	}
	rt, err := New(model, cfg)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{
		name:      name,
		cfg:       cfg,
		start:     time.Now(),
		mirrorSem: make(chan struct{}, mirrorDepth),
	}
	rev := &Revision{ID: 1, Created: time.Now(), model: model, cfg: cfg, state: RevStable}
	rev.rt.Store(rt)
	e.revs = []*Revision{rev}
	e.nextID = 1
	e.table.Store(&revTable{stable: rev, stableRT: rt})
	return e, nil
}

// Name returns the endpoint's stable route name.
func (e *Endpoint) Name() string { return e.name }

// Config returns the endpoint's serving document as installed (not
// resolved). (Locked: Reconfigure replaces it at runtime.)
func (e *Endpoint) Config() ServingConfig {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg
}

// Model returns the current stable revision's model (nil after Close).
func (e *Endpoint) Model() *ir.Model {
	if t := e.table.Load(); t != nil {
		return t.stable.model
	}
	return nil
}

// RolloutConfig shapes how a new revision receives traffic.
type RolloutConfig struct {
	// CanaryPercent routes this deterministic share of requests (0-100)
	// to the new revision. 0 deploys the revision warm but routes nothing
	// to it until Promote.
	CanaryPercent int
	// Shadow mirrors every classified request to the new revision
	// off the record instead of splitting traffic: the caller always
	// receives the stable answer while the divergence counters compare.
	// Mutually exclusive with CanaryPercent.
	Shadow bool
	// Serving overrides the new revision's serving document; zero
	// fields inherit the endpoint's (ServingConfig.Inherit).
	Serving ServingConfig
}

// Rollout starts serving model as a new revision behind the configured
// canary split or shadow mirror. Only one rollout may be in progress.
func (e *Endpoint) Rollout(model *ir.Model, cfg RolloutConfig) (*Revision, error) {
	return e.rollout(model, cfg, true)
}

// rollout is Rollout; inherit merges the override over the endpoint's
// document — the one place a revision inherits — where Reconfigure
// installs its document as it is.
func (e *Endpoint) rollout(model *ir.Model, cfg RolloutConfig, inherit bool) (*Revision, error) {
	var rev *Revision
	err := e.lifecycle(func(cur *revTable) (*revTable, error) {
		if cur.rollout != nil {
			return nil, ErrRolloutActive
		}
		doc := cfg.Serving
		if inherit {
			doc = doc.Inherit(e.cfg)
		}
		rev = &Revision{ID: e.nextID + 1, Created: time.Now(), model: model, cfg: doc}
		next, err := e.installLocked(cur, rev, cfg)
		if err != nil {
			return nil, err
		}
		e.nextID = rev.ID
		e.revs = append(e.revs, rev)
		return next, nil
	})
	if err != nil {
		return nil, err
	}
	return rev, nil
}

// installLocked makes rev the in-progress rollout over cur's stable
// revision — the one install path of Rollout, Reconfigure and
// RestoreEndpoint. It checks cfg's split, checks that rev's model takes
// the stable's feature width (a mismatch would install fine and then fail
// every canary-routed or mirrored request), starts rev's runtime and
// returns the table routing both, for the caller to publish. The caller
// holds e.mu, or owns e outright as RestoreEndpoint does.
func (e *Endpoint) installLocked(cur *revTable, rev *Revision, cfg RolloutConfig) (*revTable, error) {
	if cfg.CanaryPercent < 0 || cfg.CanaryPercent > 100 {
		return nil, fmt.Errorf("serve: canary percent %d out of [0,100]", cfg.CanaryPercent)
	}
	if cfg.Shadow && cfg.CanaryPercent != 0 {
		return nil, fmt.Errorf("serve: shadow and canary splits are mutually exclusive")
	}
	stable := cur.stable.model
	if rev.model != nil && rev.model.Inputs != stable.Inputs {
		return nil, fmt.Errorf("serve: revision %d wants %d features, endpoint %q serves %d — incompatible revision",
			rev.ID, rev.model.Inputs, e.name, stable.Inputs)
	}
	// Start the runtime inside the lock: rollouts are rare and the
	// model-validating constructor is the operation worth serializing.
	rt, err := New(rev.model, rev.cfg)
	if err != nil {
		return nil, err
	}
	rev.rt.Store(rt)
	next := &revTable{stable: cur.stable, stableRT: cur.stableRT, rollout: rev, rolloutRT: rt}
	if cfg.Shadow {
		rev.state = RevShadow
		next.shadow = newDivergence(rev.ID, stable.Outputs, rev.model.Outputs)
		e.lastShadow = next.shadow
	} else {
		rev.state, rev.canaryPercent = RevCanary, cfg.CanaryPercent
		next.percent = uint64(cfg.CanaryPercent)
	}
	return next, nil
}

// lifecycle runs one routing change under e.mu: step builds the table to
// publish from the current one, then the retention cap is enforced. The
// runtimes it evicts close after unlocking — Close drains, and a drain
// must not stall lifecycle operations; any request still in flight on
// one was admitted before it retired and is delivered first.
func (e *Endpoint) lifecycle(step func(cur *revTable) (*revTable, error)) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	next, err := step(e.table.Load())
	var evicted []*Runtime
	if err == nil {
		e.table.Store(next)
		retired, cold := e.retiredLocked()
		for _, r := range retired[:cold] {
			if rt := r.rt.Swap(nil); rt != nil {
				evicted = append(evicted, rt)
			}
		}
	}
	e.mu.Unlock()
	for _, rt := range evicted {
		_ = rt.Close()
	}
	return err
}

// retiredLocked lists the retired revisions in rollout order and how many
// of the oldest fall outside the retention cap (RetainRetired; negative
// keeps all) — the one retention rule, which every lifecycle step
// enforces and RestoreEndpoint rebuilds.
func (e *Endpoint) retiredLocked() (retired []*Revision, cold int) {
	for _, r := range e.revs {
		if r.state == RevRetired {
			retired = append(retired, r)
		}
	}
	if k := e.cfg.Resolved().RetainRetired; k >= 0 && len(retired) > k {
		cold = len(retired) - k
	}
	return retired, cold
}

// Promote makes the in-progress rollout (canary or shadow) the stable
// revision: one atomic table swap, so every request admitted after
// Promote returns is served by the promoted revision while requests
// already in flight complete on the revision that admitted them. The
// previous stable retires warm and is what Rollback returns to (the
// retention cap may later evict its runtime; rollback then re-creates
// it from the model).
func (e *Endpoint) Promote() error {
	return e.lifecycle(func(cur *revTable) (*revTable, error) {
		next := cur.rollout
		if next == nil {
			return nil, ErrNoRollout
		}
		cur.stable.state = RevRetired
		e.prevStable = append(e.prevStable, cur.stable)
		next.state, next.canaryPercent = RevStable, 0
		return &revTable{stable: next, stableRT: cur.rolloutRT}, nil
	})
}

// Reconfigure installs cfg as the endpoint's serving document through
// the regular rollout path: the stable model is rolled out as a fresh
// revision built from cfg and promoted immediately, so the change is
// one atomic routing-table swap, in-flight requests finish on the old
// runtime, and the previous document stays one Rollback away. cfg is
// complete: zero fields mean defaults, not the old values. Fails with
// ErrRolloutActive while a canary or shadow rollout is in progress.
func (e *Endpoint) Reconfigure(cfg ServingConfig) (*Revision, error) {
	m := e.Model()
	if m == nil {
		return nil, ErrClosed
	}
	rev, err := e.rollout(m, RolloutConfig{Serving: cfg}, false)
	if err != nil {
		return nil, err
	}
	if err := e.Promote(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.cfg = cfg
	e.mu.Unlock()
	return rev, nil
}

// Rollback reverses the most recent lifecycle step: with a rollout in
// progress it aborts it (the rolled-out revision retires, the stable
// keeps all traffic); otherwise it returns all traffic to the previous
// stable revision — still warm within the retention cap, revived from
// its model past it.
func (e *Endpoint) Rollback() error {
	return e.lifecycle(func(cur *revTable) (*revTable, error) {
		if rolled := cur.rollout; rolled != nil {
			rolled.state, rolled.canaryPercent = RevRetired, 0
			return &revTable{stable: cur.stable, stableRT: cur.stableRT}, nil
		}
		if len(e.prevStable) == 0 {
			return nil, ErrNoRollback
		}
		prev := e.prevStable[len(e.prevStable)-1]
		rt := prev.rt.Load()
		if rt == nil {
			// The retention cap evicted this runtime; revive it from the
			// revision's model before moving traffic.
			if prev.model == nil {
				return nil, fmt.Errorf("serve: revision %d of %q has no model to revive", prev.ID, e.name)
			}
			var err error
			if rt, err = New(prev.model, prev.cfg); err != nil {
				return nil, fmt.Errorf("serve: revive revision %d of %q: %w", prev.ID, e.name, err)
			}
			prev.rt.Store(rt)
		}
		e.prevStable = e.prevStable[:len(e.prevStable)-1]
		cur.stable.state, prev.state = RevRetired, RevStable
		return &revTable{stable: prev, stableRT: rt}, nil
	})
}

// route picks the serving runtime for one request. With a canary live,
// the endpoint's request sequence number is hashed through splitmix64,
// so the split is even, uncorrelated with request content, and exactly
// reproducible across fixed-seed replays.
func (t *revTable) route(e *Endpoint) *Runtime {
	if t.canary() && splitmix64(e.seq.Add(1)-1)%100 < t.percent {
		return t.rolloutRT
	}
	return t.stableRT
}

// Classify routes one feature vector through the endpoint's current
// revision table and blocks until its class is computed. Sheds with
// ErrOverloaded under backpressure and fails with ErrClosed after Close.
func (e *Endpoint) Classify(x []float64) (int, error) {
	for {
		t := e.table.Load()
		if t == nil {
			return 0, ErrClosed
		}
		class, err := t.route(e).Classify(x)
		if err != nil && errors.Is(err, ErrClosed) {
			// The routed runtime closed between our table load and the
			// enqueue — a retention eviction (or Close) retired it. The
			// table this request routed through is necessarily stale (an
			// evicted revision is never referenced by the current table),
			// so reloading makes progress; a genuinely closed endpoint
			// surfaces as a nil table on the next spin.
			continue
		}
		if t.shadow != nil && err == nil {
			e.mirror(t, [][]float64{x}, []int{class})
		}
		return class, err
	}
}

// ClassifyBatch routes every vector of xs (each request is split
// independently, exactly as Classify would) and waits for all results;
// classes[i] is -1 for shed or failed requests.
func (e *Endpoint) ClassifyBatch(xs [][]float64) (classes []int, dropped int, err error) {
	classes, dropped, err = e.classifyBatchOnce(xs)
	if err != nil && errors.Is(err, ErrClosed) && e.table.Load() != nil {
		// Part of the batch raced a retention eviction (its routed
		// runtime closed after the table load). The endpoint is still
		// open, so re-drive the unclassified requests through Classify,
		// which retries on fresh tables.
		err = nil
		dropped = 0
		for i, c := range classes {
			if c >= 0 {
				continue
			}
			cl, cerr := e.Classify(xs[i])
			if cerr == nil {
				classes[i] = cl
				continue
			}
			classes[i] = -1
			if errors.Is(cerr, ErrOverloaded) {
				dropped++
			}
			if err == nil {
				err = cerr
			}
		}
	}
	return classes, dropped, err
}

func (e *Endpoint) classifyBatchOnce(xs [][]float64) (classes []int, dropped int, err error) {
	t := e.table.Load()
	if t == nil {
		classes = make([]int, len(xs))
		for i := range classes {
			classes[i] = -1
		}
		return classes, len(xs), ErrClosed
	}
	if t.canary() {
		classes, dropped, err = t.splitBatch(e, xs)
	} else {
		classes, dropped, err = t.stableRT.ClassifyBatch(xs)
	}
	if t.shadow != nil {
		e.mirror(t, xs, classes)
	}
	return classes, dropped, err
}

// splitBatch classifies xs across a live canary split, each row routed
// as Classify would route it. view holds the rows permuted into two
// contiguous ranges — stable rows from the front, canary rows from the
// back — that classify concurrently into one result slice, scattered
// back to input order once.
func (t *revTable) splitBatch(e *Endpoint, xs [][]float64) (classes []int, dropped int, err error) {
	n := len(xs)
	view := make([][]float64, n)
	from := make([]int, n) // view[j] is xs[from[j]]
	cut, back := 0, n
	for i, x := range xs {
		if t.route(e) == t.rolloutRT {
			back--
			view[back], from[back] = x, i
		} else {
			view[cut], from[cut] = x, i
			cut++
		}
	}
	res := make([]int, n)
	var (
		wg            sync.WaitGroup
		canaryDropped int
		canaryErr     error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		canaryDropped, canaryErr = t.rolloutRT.classifyInto(view[cut:], res[cut:])
	}()
	dropped, err = t.stableRT.classifyInto(view[:cut], res[:cut])
	wg.Wait()
	classes = make([]int, n)
	for j, c := range res {
		classes[from[j]] = c
	}
	if err == nil {
		err = canaryErr
	}
	return classes, dropped + canaryDropped, err
}

// mirror re-scores classified rows on the shadow revision without
// blocking the caller, as one unit: one semaphore slot, one copy of the
// rows that got a class (and of the classes — both are the caller's
// again once its call returns; httpapi's pooled classify buffers depend
// on it), one goroutine, one shadow ClassifyBatch. Saturation sheds the
// whole mirror, counted in vectors, rather than delaying the primary
// path. Classify mirrors its one row through here too.
func (e *Endpoint) mirror(t *revTable, xs [][]float64, classes []int) {
	n, width := 0, 0
	for i, c := range classes {
		if c >= 0 {
			n, width = n+1, width+len(xs[i])
		}
	}
	if n == 0 {
		return
	}
	select {
	case e.mirrorSem <- struct{}{}:
	default:
		t.shadow.shed.Add(uint64(n))
		return
	}
	flat := make([]float64, 0, width)
	rows := make([][]float64, 0, n)
	cls := make([]int, 0, 2*n) // the primary classes, then the shadow's
	for i, c := range classes {
		if c >= 0 {
			at := len(flat)
			flat = append(flat, xs[i]...)
			rows = append(rows, flat[at:len(flat):len(flat)])
			cls = append(cls, c)
		}
	}
	d, rt := t.shadow, t.rolloutRT
	go func() {
		defer func() { <-e.mirrorSem }()
		shadow := cls[n : 2*n]
		_, _ = rt.classifyInto(rows, shadow)
		for i, class := range shadow {
			d.record(cls[i], class, class < 0)
		}
	}()
}

// RevisionInfos lists every revision's lifecycle metadata (ID, state,
// traffic share, warmth, document) in rollout order without
// snapshotting the runtimes — the cheap form for listings that do not
// need counters (Stats is left zero).
func (e *Endpoint) RevisionInfos() []RevisionStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rowsLocked()
}

func (e *Endpoint) rowsLocked() []RevisionStats {
	out := make([]RevisionStats, 0, len(e.revs))
	for _, r := range e.revs {
		out = append(out, RevisionStats{
			ID: r.ID, State: r.state, Created: r.Created, CanaryPercent: r.canaryPercent,
			Warm: r.rt.Load() != nil, Config: r.cfg,
		})
	}
	return out
}

// View reports the endpoint's current routing: the stable revision ID,
// the canary (0 if none) with its traffic share, and the shadow (0 if
// none). All zeros after Close.
func (e *Endpoint) View() (stable, canary, canaryPercent, shadow int) {
	t := e.table.Load()
	if t == nil {
		return 0, 0, 0, 0
	}
	switch {
	case t.shadow != nil:
		shadow = t.rollout.ID
	case t.rollout != nil:
		canary, canaryPercent = t.rollout.ID, int(t.percent)
	}
	return t.stable.ID, canary, canaryPercent, shadow
}

// Stats snapshots the endpoint: per-revision metrics, the merged view
// (summed counters and histograms, quantiles over the combined
// histogram), and the shadow divergence report. Cold revisions appear
// with zero stats — their counters left with their runtimes.
func (e *Endpoint) Stats() EndpointStats {
	e.mu.Lock()
	rows := e.rowsLocked()
	rts := make([]*Runtime, len(e.revs))
	for i, r := range e.revs {
		rts[i] = r.rt.Load()
	}
	shadow := e.lastShadow
	e.mu.Unlock()

	out := EndpointStats{Name: e.name, Revisions: rows}
	var merged RawStats
	for i, rt := range rts {
		if rt != nil {
			raw := rt.raw()
			rows[i].Stats = raw.Stats()
			merged.Merge(raw)
		}
	}
	merged.UptimeNS = int64(time.Since(e.start))
	out.Merged = merged.Stats()
	if shadow != nil {
		out.Shadow = shadow.snapshot()
	}
	return out
}

// Close stops intake across every revision and drains: accepted requests
// are classified and delivered, in-flight shadow mirrors finish scoring,
// then all revision runtimes exit. Idempotent.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.table.Store(nil)
	// Revision states are left as the last live routing showed them, so
	// the post-drain stats still tell which revision ended up stable.
	var rts []*Runtime
	for _, r := range e.revs {
		if rt := r.rt.Load(); rt != nil {
			rts = append(rts, rt)
		}
	}
	e.mu.Unlock()
	for _, rt := range rts {
		_ = rt.Close()
	}
	// Wait out in-flight shadow mirrors by acquiring every semaphore
	// slot; new mirrors cannot start (the table is gone).
	for i := 0; i < cap(e.mirrorSem); i++ {
		e.mirrorSem <- struct{}{}
	}
	return nil
}

// RestoreRevision is one revision of a persisted endpoint being rebuilt.
type RestoreRevision struct {
	// ID is the revision's original endpoint-local number.
	ID int
	// Model is the revision's compiled model. It may be nil only for a
	// retired revision whose artifact did not survive — the revision is
	// then listed but can never serve again.
	Model *ir.Model
	// Config is the revision's effective serving document, used as it
	// is: nothing is inherited from the endpoint's on restore.
	Config ServingConfig
	// State is the revision's lifecycle place; exactly one restored
	// revision must be RevStable, and at most one RevCanary or RevShadow.
	State RevisionState
	// CanaryPercent is the live traffic share of a RevCanary revision.
	CanaryPercent int
	// Created is the revision's original rollout time (now if zero).
	Created time.Time
}

// RestoreEndpoint rebuilds an endpoint from persisted state: the same
// revision history, routing table, and canary/shadow configuration it
// had when the manifest was written. The manifest's shape is checked
// here; the live rollout is installed, and the retired revisions kept
// warm, by the same helpers the live lifecycle uses — a restore checks
// everything a Rollout does. Older retired revisions come back cold.
// Serving counters and shadow divergence tallies restart from zero —
// stats are not durable.
func RestoreEndpoint(name string, cfg ServingConfig, revs []RestoreRevision) (*Endpoint, error) {
	if name == "" {
		return nil, fmt.Errorf("serve: endpoint needs a name")
	}
	if len(revs) == 0 {
		return nil, fmt.Errorf("serve: restore %q: no revisions", name)
	}
	e := &Endpoint{
		name:      name,
		cfg:       cfg,
		start:     time.Now(),
		mirrorSem: make(chan struct{}, mirrorDepth),
	}
	sorted := append([]RestoreRevision(nil), revs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })

	var stable, rollout *Revision
	var split RolloutConfig
	for _, rr := range sorted {
		if rr.ID <= e.nextID {
			return nil, fmt.Errorf("serve: restore %q: duplicate or non-positive revision ID %d", name, rr.ID)
		}
		rev := &Revision{
			ID: rr.ID, Created: rr.Created, model: rr.Model,
			cfg: rr.Config, state: rr.State, canaryPercent: rr.CanaryPercent,
		}
		if rev.Created.IsZero() {
			rev.Created = time.Now()
		}
		switch rr.State {
		case RevStable:
			if stable != nil {
				return nil, fmt.Errorf("serve: restore %q: two stable revisions (%d, %d)", name, stable.ID, rr.ID)
			}
			stable = rev
		case RevCanary, RevShadow:
			if rollout != nil {
				return nil, fmt.Errorf("serve: restore %q: more than one live rollout", name)
			}
			rollout = rev
			split = RolloutConfig{CanaryPercent: rr.CanaryPercent, Shadow: rr.State == RevShadow}
		case RevRetired:
		default:
			return nil, fmt.Errorf("serve: restore %q: revision %d has unknown state %q", name, rr.ID, rr.State)
		}
		e.revs = append(e.revs, rev)
		e.nextID = rr.ID
	}
	if stable == nil {
		return nil, fmt.Errorf("serve: restore %q: no stable revision", name)
	}

	rt, err := New(stable.model, stable.cfg)
	if err != nil {
		return nil, fmt.Errorf("serve: restore %q revision %d: %w", name, stable.ID, err)
	}
	stable.rt.Store(rt)
	table := &revTable{stable: stable, stableRT: rt}
	if rollout != nil {
		if table, err = e.installLocked(table, rollout, split); err != nil {
			_ = rt.Close() // a rejected restore leaks nothing
			return nil, fmt.Errorf("serve: restore %q: %w", name, err)
		}
	}

	// Retired revisions within the retention cap come back warm (instant
	// rollback, as on the live endpoint); older ones stay cold. A
	// model-less or invalid retired revision simply stays cold — boot
	// must not fail over a revision nothing routes to.
	retired, cold := e.retiredLocked()
	for _, r := range retired[cold:] {
		if r.model == nil {
			continue
		}
		if rt, err := New(r.model, r.cfg); err == nil {
			r.rt.Store(rt)
		}
	}
	// The promote-history stack is rebuilt in revision order: rolling
	// back walks retired revisions newest first.
	e.prevStable = retired
	e.table.Store(table)
	return e, nil
}
