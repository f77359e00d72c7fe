// Package serve is the deployment runtime: it turns a compiled model (the
// winning *ir.Model of a homunculus compilation) into a long-lived
// inference server for live traffic. This is the fourth architectural
// layer — load → search → compose → codegen → **serve** — and the first
// whose correctness is a throughput/latency contract rather than a result
// value.
//
// The hot loop is built in the hardware idiom (see ring.go): each shard
// owns a fixed-size ring of preallocated request slots with an atomic
// ready-bitmap scoreboard. Producers claim a slot with an atomic
// fetch-add and publish with a bit set; a harvester — the producer
// itself when the shard is idle, else the shard's fallback worker —
// drains the bitmap with a bits.TrailingZeros64 sweep. One sweep is one
// micro-batch, so batches form naturally under concurrent load and a
// lone request is classified inline with zero scheduler handoffs. The
// busy path touches no channel and no mutex; parking is futex-style and
// only on the idle path.
//
// Backpressure is a per-shard credit counter: when a ring is full,
// Classify sheds immediately with ErrOverloaded instead of queueing
// unboundedly (the same shed-at-the-door discipline as the compilation
// service's admission queue). Each shard owns a prepared ir.Predictor,
// so the steady-state classify path performs zero heap allocations.
// Per-deployment metrics (throughput, a sampled log-scale latency
// histogram for p50/p99, per-class counts, drops) are recorded inline
// from day one — observability is part of the serving contract, not a
// bolt-on.
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
	"repro/internal/parallel"
)

var (
	// ErrOverloaded sheds a request because the bounded slot ring is
	// full. Callers should back off (HTTP maps this to 429).
	ErrOverloaded = errors.New("serve: deployment overloaded, request shed")
	// ErrClosed rejects requests after Close began draining.
	ErrClosed = errors.New("serve: deployment closed")
)

// Options bounds a deployment runtime. Zero values select defaults.
type Options struct {
	// Shards is the number of inference lanes, each owning a slot ring
	// and a prepared quantized predictor. Default: the shared parallel
	// pool's worker count (GOMAXPROCS).
	Shards int
	// BatchSize is the micro-batch target: a harvest sweep that collects
	// at least this many requests counts as a full flush in Stats.
	// Default 64. (The ring harvests continuously, so this is a stats
	// threshold, not a dispatch trigger.)
	BatchSize int
	// MaxDelay bounds how long a harvester may hold a partial batch
	// waiting for more arrivals. Whether it holds at all is policy:
	// the default policy is greedy (harvest as soon as a slot is
	// published — no request ever waits on a batching deadline), the
	// historical ring-scheduler behavior. Deadline batching engages
	// only when the bound was set explicitly through the canonical
	// ServingConfig (MaxDelaySet, positive MaxDelay) or when
	// AdaptiveFlush decides a burst is worth holding for. Default
	// 500µs; zero-without-presence inherits the default, negative is
	// always greedy.
	MaxDelay time.Duration
	// MaxDelaySet marks MaxDelay as explicitly configured, making an
	// explicit zero (greedy) distinguishable from "use the default" —
	// the flat int spellings conflate the two, which made greedy
	// unrepresentable on rollout inheritance. Set automatically by
	// ServingConfig.Options when max_delay_ns is present.
	MaxDelaySet bool
	// AdaptiveFlush enables the per-shard TAGE-flavored inter-arrival
	// predictor (predict.go): the harvester holds a partial batch only
	// when the predicted arrival gaps say the batch will fill within
	// the MaxDelay bound. Quiet traffic keeps greedy latency; bursts
	// get full batches. Classification output is bit-identical either
	// way. Default off.
	AdaptiveFlush bool
	// QueueDepth caps requests accepted but not yet harvested by a
	// shard. Classify sheds with ErrOverloaded beyond it. Default 1024.
	// The per-shard ring size is QueueDepth/Shards rounded up to a
	// power of two.
	QueueDepth int

	// RetainRetired caps how many retired revisions an Endpoint keeps
	// warm (live runtime, instant rollback). Older retired revisions
	// have their runtimes closed — their serving counters leave the
	// endpoint's merged stats — and are lazily re-created from the
	// revision's model if a rollback walks back that far. Default 2;
	// negative keeps every retired revision warm (the pre-cap behavior).
	// Meaningful only for endpoints; single-revision runtimes ignore it.
	RetainRetired int

	// testHook, when set by white-box tests, runs before each request is
	// classified — it lets tests hold shards busy deterministically.
	testHook func()
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = parallel.Workers()
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.MaxDelay == 0 && !o.MaxDelaySet {
		o.MaxDelay = 500 * time.Microsecond
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.RetainRetired == 0 {
		o.RetainRetired = 2
	}
	return o
}

// request is one in-flight classification. Requests are pooled: the
// feature buffer, the 1-slot wake channel, and the struct itself are all
// reused, which is what keeps the steady-state classify path at zero
// allocations. Delivery is a done flag (spin/park, see ring.go), not a
// channel send, so the busy path stays channel-free.
type request struct {
	x     []float64
	class int
	err   error

	done   atomic.Uint32 // result published
	waiter atomic.Uint32 // producer parked; Swap(1→0) claims the wake
	wake   chan struct{} // 1-slot producer unpark token

	sampled bool      // latency timestamps recorded for this request
	start   time.Time // set only when sampled
}

// Runtime is a live deployment serving one compiled model. All exported
// methods are safe for concurrent use.
type Runtime struct {
	opts  Options
	model *ir.Model

	// holdFixed selects the fixed-deadline flush policy: harvesters
	// hold partial batches up to MaxDelay (predict.go). Set only for
	// explicitly configured bounds (Options.MaxDelaySet) without
	// AdaptiveFlush.
	holdFixed bool

	rings []*shard
	rr    atomic.Uint64 // round-robin shard cursor

	reqPool sync.Pool

	stats stats

	closed    atomic.Bool
	closeOnce sync.Once
	stop      chan struct{} // closed after drain; workers exit
	workers   sync.WaitGroup
}

// New validates the model and starts the runtime's shard rings and
// fallback workers.
func New(model *ir.Model, opts Options) (*Runtime, error) {
	if model == nil {
		return nil, fmt.Errorf("serve: nil model")
	}
	o := opts.withDefaults()
	capacity := ringCapacity(o.QueueDepth, o.Shards)
	rt := &Runtime{
		opts:  o,
		model: model,
		rings: make([]*shard, o.Shards),
		stop:  make(chan struct{}),
	}
	adaptive := o.AdaptiveFlush && o.MaxDelay > 0
	for i := range rt.rings {
		// newShard validates the model via ir.NewPredictor, so a broken
		// model fails at Deploy time, not on the first live request.
		sh, err := newShard(model, capacity)
		if err != nil {
			return nil, err
		}
		if adaptive {
			sh.gaps = new(gapPredictor)
		}
		rt.rings[i] = sh
	}
	// Deadline batching only for explicitly configured positive bounds
	// (ServingConfig presence); legacy flat MaxDelay spellings keep the
	// greedy ring-scheduler behavior they were written against.
	rt.holdFixed = o.MaxDelaySet && o.MaxDelay > 0 && !adaptive
	rt.reqPool.New = func() any {
		return &request{wake: make(chan struct{}, 1), x: make([]float64, 0, model.Inputs)}
	}
	rt.stats.init(model.Outputs)
	rt.workers.Add(o.Shards)
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

// Options returns the effective (defaulted) runtime bounds.
func (rt *Runtime) Options() Options { return rt.opts }

// Model returns the deployed model.
func (rt *Runtime) Model() *ir.Model { return rt.model }

// pick selects the next shard round-robin.
func (rt *Runtime) pick() *shard {
	if len(rt.rings) == 1 {
		return rt.rings[0]
	}
	return rt.rings[rt.rr.Add(1)%uint64(len(rt.rings))]
}

// Classify submits one feature vector and blocks until its class is
// computed (micro-batched with concurrent submissions). It sheds with
// ErrOverloaded when the slot ring is full and fails with ErrClosed once
// draining began. The input slice is copied; the caller may reuse it
// immediately.
func (rt *Runtime) Classify(x []float64) (int, error) {
	r := rt.reqPool.Get().(*request)
	r.x = append(r.x[:0], x...)
	sh := rt.pick()
	if err := rt.enqueue(sh, r); err != nil {
		if errors.Is(err, ErrOverloaded) {
			rt.stats.dropped.Add(1)
		}
		r.x = r.x[:0]
		rt.reqPool.Put(r)
		return 0, err
	}
	rt.await(sh, r)
	class, err := r.class, r.err
	rt.reqPool.Put(r)
	return class, err
}

// ClassifyBatch submits every vector of xs and waits for all results.
// classes[i] is -1 for requests that were shed (counted in dropped) or
// failed inference; err carries the first inference error, if any.
// Accepted requests always complete, even when later ones shed. When a
// ring fills with this call's own in-flight traffic, the enqueue loop
// helps harvest instead of shedding, so a batch larger than the ring
// pipelines through it; sheds happen only under competing load. Every
// vector is copied into its request slot before this returns, so the
// caller may reuse xs and its rows immediately — httpapi's pooled
// classify buffers depend on it.
func (rt *Runtime) ClassifyBatch(xs [][]float64) (classes []int, dropped int, err error) {
	classes = make([]int, len(xs))
	pending := make([]*request, len(xs))
	shards := make([]*shard, len(xs))
	head := 0 // first of our requests that may still be in flight
	for i, x := range xs {
		r := rt.reqPool.Get().(*request)
		r.x = append(r.x[:0], x...)
		for {
			sh := rt.pick()
			eerr := rt.enqueue(sh, r)
			if eerr == nil {
				pending[i], shards[i] = r, sh
				rt.unpark(sh) // let the worker harvest while we keep enqueueing
				break
			}
			if errors.Is(eerr, ErrOverloaded) {
				for head < i && (pending[head] == nil || pending[head].done.Load() == 1) {
					head++
				}
				if head < i {
					// Our own traffic holds ring credits; help drain it
					// and retry instead of shedding our own pipeline.
					rt.harvest(shards[head])
					runtime.Gosched()
					continue
				}
				rt.stats.dropped.Add(1)
			}
			classes[i] = -1
			dropped++
			if errors.Is(eerr, ErrClosed) && err == nil {
				err = eerr
			}
			r.x = r.x[:0]
			rt.reqPool.Put(r)
			break
		}
	}
	for i, r := range pending {
		if r == nil {
			continue
		}
		rt.await(shards[i], r)
		if r.err != nil {
			classes[i] = -1
			if err == nil {
				err = r.err
			}
		} else {
			classes[i] = r.class
		}
		rt.reqPool.Put(r)
	}
	return classes, dropped, err
}

// Stats snapshots the deployment's metrics.
func (rt *Runtime) Stats() Stats { return rt.stats.snapshot() }

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
		// request is classified. Progress needs no help from here — each
		// in-flight request has a live producer spinning or a worker
		// covering it.
		for {
			var inflight int64
			for _, sh := range rt.rings {
				inflight += sh.credits.Load()
			}
			if inflight == 0 && rt.stats.completed.Load() >= rt.stats.accepted.Load() {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		close(rt.stop)
		rt.workers.Wait()
	})
	return nil
}
