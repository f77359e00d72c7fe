// Package serve is the deployment runtime: it turns a compiled model (the
// winning *ir.Model of a homunculus compilation) into a long-lived
// inference server for live traffic. This is the fourth architectural
// layer — load → search → compose → codegen → **serve** — and the first
// whose correctness is a throughput/latency contract rather than a result
// value.
//
// The hot loop is built in the hardware idiom (see ring.go): each shard
// owns a fixed-size ring of preallocated slots with an atomic
// ready-bitmap scoreboard. Producers claim a slot with an atomic
// fetch-add, write a span — a run of their own rows and of their result
// slice, nothing copied — and publish with a bit set; a harvester drains
// the bitmap with a bits.TrailingZeros64 sweep. A lone request first
// claims a shard's harvest lock — its pooled request's home shard when
// free — and, holding it, classifies itself in place on that shard's
// predictor without touching the ring (the owner path), then sweeps
// whatever neighbors published meanwhile: zero scheduler handoffs, and
// writes only to its own shard's lines, counters included. When every
// shard is owned it publishes to home and that shard's harvester
// (another producer, or the fallback worker) takes it, so batches form
// naturally under concurrent load; a ClassifyBatch is one span and one
// batch-kernel call per shard.
// The busy path touches no channel and no mutex; parking is futex-style
// and only on the idle path.
//
// Backpressure is a per-shard credit counter: when a ring is full,
// Classify sheds immediately with ErrOverloaded instead of queueing
// unboundedly (the same shed-at-the-door discipline as the compilation
// service's admission queue). Each shard owns a prepared ir.Predictor,
// so the steady-state classify path performs zero heap allocations.
// Per-deployment metrics (throughput, a sampled log-scale latency
// histogram for p50/p99, per-class counts, drops) are recorded inline,
// per shard, and summed when read — observability is part of the
// serving contract, not a bolt-on.
//
// Close drains: intake stops (ErrClosed), every request already accepted
// is still classified and delivered, then the workers exit. See
// docs/serving.md for the knobs and wire API, and docs/performance.md
// for the ring scheduler's slot lifecycle and park/unpark semantics.
package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ir"
)

var (
	// ErrOverloaded sheds a request because the bounded slot ring is
	// full. Callers should back off (HTTP maps this to 429).
	ErrOverloaded = errors.New("serve: deployment overloaded, request shed")
	// ErrClosed rejects requests after Close began draining.
	ErrClosed = errors.New("serve: deployment closed")
)

// request is one blocking call, Classify or ClassifyBatch, waiting on the
// spans it has published. Requests are pooled: the 1-slot wake channel
// and the struct itself are reused, which is what keeps the steady-state
// classify path at zero allocations. Delivery is a countdown (spin/park,
// see ring.go), not a channel send, so the busy path stays channel-free.
type request struct {
	row  [1][]float64 // Classify's vector, as a span of one
	cls  [1]int       // and its class
	home int          // the shard a lone span tries first (claim)

	pending atomic.Int32          // spans published and not yet delivered
	err     atomic.Pointer[error] // an inference error from one of them
	waiter  atomic.Uint32         // producer parked; Swap(1→0) claims the wake
	wake    chan struct{}         // 1-slot producer unpark token
}

// release returns r to the pool holding nothing of the caller's.
func (rt *Runtime) release(r *request) {
	r.row[0] = nil
	if r.err.Load() != nil {
		r.err.Store(nil)
	}
	rt.reqPool.Put(r)
}

// Runtime is a live deployment serving one compiled model. All exported
// methods are safe for concurrent use.
type Runtime struct {
	model *ir.Model

	// The resolved bounds the hot loop reads (ServingConfig.Resolved,
	// ServingConfig.Flush): the sweep size that counts as a full flush,
	// the flush policy and its hold bound (predict.go).
	batchSize int
	flush     FlushPolicy
	maxDelay  time.Duration

	// testHook, when set by white-box tests before the first request,
	// runs before each span is classified — it lets tests hold shards
	// busy deterministically.
	testHook func()

	rings []*shard
	rr    atomic.Uint64 // round-robin shard cursor: a multi-span batch's first shard, a new request's home

	reqPool sync.Pool

	// The runtime-wide metrics; the rest are per shard (stats.go).
	start   time.Time
	dropped atomic.Uint64 // vectors shed before any shard took them

	closed    atomic.Bool
	closeOnce sync.Once
	stop      chan struct{} // closed after drain; workers exit
	workers   sync.WaitGroup
}

// New validates the model and starts a runtime with cfg's resolved
// bounds: its shard rings and their fallback workers.
func New(model *ir.Model, cfg ServingConfig) (*Runtime, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	r := cfg.Resolved()
	rt := &Runtime{
		model:     model,
		batchSize: r.BatchSize,
		rings:     make([]*shard, r.Shards),
		stop:      make(chan struct{}),
	}
	rt.flush, rt.maxDelay = r.Flush()
	capacity := ringCapacity(r.QueueDepth, r.Shards)
	for i := range rt.rings {
		// newShard validates the model via ir.NewPredictor, so a broken
		// model fails at Deploy time, not on the first live request.
		sh, err := newShard(model, capacity)
		if err != nil {
			return nil, err
		}
		if rt.flush == FlushAdaptive {
			sh.gaps = new(gapPredictor)
		}
		rt.rings[i] = sh
	}
	rt.reqPool.New = func() any { return &request{home: rt.next(1), wake: make(chan struct{}, 1)} }
	rt.start = time.Now()
	rt.workers.Add(r.Shards)
	for _, sh := range rt.rings {
		go rt.worker(sh)
	}
	return rt, nil
}

// ringCapacity splits QueueDepth across shards, rounding each ring up to
// a power of two so slot indexing is a mask.
func ringCapacity(depth, shards int) uint64 {
	per := (depth + shards - 1) / shards
	c := uint64(1)
	for c < uint64(per) {
		c <<= 1
	}
	return c
}

// next advances the round-robin shard cursor by n and returns the index
// of the first of the n shards it passed.
func (rt *Runtime) next(n int) int {
	if len(rt.rings) == 1 {
		return 0
	}
	return int((rt.rr.Add(uint64(n)) - uint64(n)) % uint64(len(rt.rings)))
}

// Classify submits one feature vector and blocks until its class is
// computed (micro-batched with concurrent submissions). It sheds with
// ErrOverloaded when the slot ring is full and fails with ErrClosed once
// draining began. x is read until Classify returns and not after; the
// caller may reuse it then.
func (rt *Runtime) Classify(x []float64) (int, error) {
	r := rt.reqPool.Get().(*request)
	r.row[0] = x
	// A lone span (ring.go): claim a harvest lock from home on. A won
	// claim classifies the vector in place under the greedy policy; a
	// hold policy publishes it instead, to wait in the ring for company.
	// A lost claim publishes to home and waits on its harvester. Written
	// out rather than shared with classifyInto: every shadow mirror runs
	// this on a fresh goroutine, whose first stack one more frame on this
	// chain outgrows (BenchmarkServeClassifyFreshGoroutine).
	at, owned := rt.claim(r.home)
	sh := rt.rings[at]
	var err error
	if owned && rt.flush == FlushGreedy {
		err = rt.classifyOwned(sh, r, r.row[:], r.cls[:])
		rt.drain(sh, false)
	} else {
		r.pending.Store(1)
		err = rt.enqueue(sh, r, r.row[:], r.cls[:], owned)
		switch {
		case owned:
			rt.drain(sh, err == nil)
		case err == nil:
			rt.await(r, at, 1, true)
		}
	}
	if err != nil {
		if errors.Is(err, ErrOverloaded) {
			rt.dropped.Add(1)
		}
		rt.release(r)
		return 0, err
	}
	class, perr := r.cls[0], r.err.Load()
	rt.release(r)
	if perr != nil {
		return 0, *perr
	}
	return class, nil
}

// refused settles a span enqueue turned away: its classes read -1 and
// count as dropped. A shed span is also a runtime drop; any other
// refusal (ErrClosed) is the call's error.
func (rt *Runtime) refused(eerr error, out []int) (dropped int, err error) {
	if errors.Is(eerr, ErrOverloaded) {
		rt.dropped.Add(uint64(len(out)))
	} else {
		err = eerr
	}
	for i := range out {
		out[i] = -1
	}
	return len(out), err
}

// spanSize cuts a batch of n vectors for this runtime: into as many
// spans as there are shards, as long as each keeps minSpan vectors; in
// whole tiles of the batch kernel; and never more than a ring holds — so
// a batch larger than the rings is more spans than shards and pipelines.
func (rt *Runtime) spanSize(n int) int {
	spans := max(1, min(len(rt.rings), n/minSpan))
	size := ((n+spans-1)/spans + ir.Tile - 1) / ir.Tile * ir.Tile
	return min(size, int(rt.rings[0].cap))
}

// ClassifyBatch submits every vector of xs and waits for all results.
// classes[i] is -1 for vectors that were shed (counted in dropped) or
// failed inference; err carries an inference error, if there was one.
// The batch is admitted as spans — runs of xs, each classified in place
// by one shard in one batch-kernel call — so a span is shed or accepted
// whole, and accepted spans always complete, even when later ones shed.
// When a ring fills with this call's own spans, the enqueue loop helps
// harvest instead of shedding, so a batch larger than the rings pipelines
// through them; sheds happen only under competing load. xs and its rows
// are read until ClassifyBatch returns and not after; the caller may
// reuse them then — httpapi's pooled classify buffers depend on it.
func (rt *Runtime) ClassifyBatch(xs [][]float64) (classes []int, dropped int, err error) {
	classes = make([]int, len(xs))
	dropped, err = rt.classifyInto(xs, classes)
	return classes, dropped, err
}

// classifyInto is ClassifyBatch writing into the caller's classes, which
// must be as long as xs.
func (rt *Runtime) classifyInto(xs [][]float64, classes []int) (dropped int, err error) {
	if len(xs) == 0 {
		return 0, nil
	}
	size := rt.spanSize(len(xs))
	spans := (len(xs) + size - 1) / size
	r := rt.reqPool.Get().(*request)
	if spans == 1 {
		// A lone span, as in Classify; spans are never held, so a won
		// claim classifies it in place under every policy.
		at, owned := rt.claim(r.home)
		sh := rt.rings[at]
		var eerr error
		if owned {
			eerr = rt.classifyOwned(sh, r, xs, classes)
			rt.drain(sh, false)
		} else {
			r.pending.Store(1)
			if eerr = rt.enqueue(sh, r, xs, classes, false); eerr == nil {
				rt.await(r, at, 1, false)
			}
		}
		if eerr != nil {
			dropped, err = rt.refused(eerr, classes)
		}
	} else {
		r.pending.Store(int32(spans))
		dropped, err = rt.spread(r, xs, classes, size, spans)
	}
	if perr := r.err.Load(); perr != nil && err == nil {
		err = *perr
	}
	rt.release(r)
	return dropped, err
}

// spread publishes a batch of several spans to consecutive shards from
// the round-robin cursor on — at most one span each while they last —
// and waits for every admitted one.
func (rt *Runtime) spread(r *request, xs [][]float64, classes []int, size, spans int) (dropped int, err error) {
	first := rt.next(spans)
	for k := 0; k < spans; k++ {
		lo, hi := k*size, min((k+1)*size, len(xs))
		sh := rt.rings[(first+k)%len(rt.rings)]
		var eerr error
		for {
			// Read before the attempt: a full ring sheds the span only if
			// nothing of ours could have been what filled it.
			ours := int(r.pending.Load()) > spans-k
			eerr = rt.enqueue(sh, r, xs[lo:hi], classes[lo:hi], false)
			if !ours || !errors.Is(eerr, ErrOverloaded) {
				break
			}
			// Spans of ours were in the rings or under a kernel: help
			// drain and retry instead of shedding our own pipeline.
			rt.harvest(sh, false)
			runtime.Gosched()
		}
		if eerr == nil {
			if k > 0 {
				// The first span is ours to classify; a worker can take
				// this one meanwhile.
				rt.unpark(sh)
			}
			continue
		}
		d, rerr := rt.refused(eerr, classes[lo:hi])
		dropped += d
		if err == nil {
			err = rerr
		}
		r.pending.Add(-1)
	}
	rt.await(r, first, min(spans, len(rt.rings)), false)
	return dropped, err
}

// Stats snapshots the deployment's metrics.
func (rt *Runtime) Stats() Stats { return rt.raw().Stats() }

// Close stops intake and drains: every accepted request is classified
// and delivered, then the workers exit. Blocks until the drain
// completes. Idempotent; concurrent Classify calls either complete or
// fail with ErrClosed.
func (rt *Runtime) Close() error {
	rt.closeOnce.Do(func() {
		rt.closed.Store(true)
		// Drain: credits quiesce once every admitted request has been
		// harvested (and any producer between credit and publish has
		// finished), completed catches accepted once every harvested
		// request is classified. Every shard's completed is read before
		// any shard's accepted, so a sum cannot catch up early. Progress
		// needs no help from here — each in-flight request has a live
		// producer spinning or a worker covering it.
		for {
			var inflight int64
			var completed, accepted uint64
			for _, sh := range rt.rings {
				inflight += sh.credits.Load()
				completed += sh.stats.completed.Load()
			}
			for _, sh := range rt.rings {
				accepted += sh.stats.accepted.Load()
			}
			if inflight == 0 && completed >= accepted {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		close(rt.stop)
		rt.workers.Wait()
	})
	return nil
}
