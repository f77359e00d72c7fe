package serve

// The ring scheduler: the serving hot loop rebuilt in the hardware idiom.
//
// Each shard owns a fixed-size ring of preallocated slots plus an atomic
// ready-bitmap scoreboard. A slot carries a span: a run of the caller's
// own rows and the matching run of its result slice — one row for
// Classify, up to a shard's share of the batch for ClassifyBatch. Nothing
// is copied: the caller blocks until every span it published is
// delivered, so its memory is live for as long as a harvester reads it.
//
//   - producers claim a slot with an atomic fetch-add ticket (a per-slot
//     sequence number gates reuse, Vyukov-style), write the span, and
//     publish by setting the slot's bit in the bitmap;
//   - a harvester drains the bitmap with an atomic Swap(0) per word and a
//     bits.TrailingZeros64 sweep — one sweep is one micro-batch, one
//     predictor call per span;
//   - admission is a per-shard credit counter in vectors: when a span
//     does not fit the ring's remaining credits the producer sheds it
//     with ErrOverloaded at the door, before touching a ticket.
//
// The busy path never touches a channel or a mutex. Parking is
// futex-style and only for the idle path: a shard's worker goroutine
// publishes a parked flag and blocks on a 1-slot wake channel; the first
// producer to observe the flag claims it with a Swap and posts exactly
// one token. A waiting producer uses the same protocol per call (a
// waiter flag + 1-slot channel on the pooled request).
//
// The fast path is caller-harvesting and core-local. Every pooled
// request has a home shard, dealt round-robin when the pool mints it;
// sync.Pool hands a request back on the P that released it, so each P
// settles on a shard of its own. A lone span — a Classify vector, or a
// ClassifyBatch that fits in one span — claims a harvest lock before it
// publishes: home's when it is free, else the next free one round the
// shards. Holding it, the producer publishes and drains the shard
// itself, classifying its own span (and any neighbors published
// meanwhile) on its own goroutine: zero scheduler handoffs, which is
// what buys the single-digit-µs p99, and no write to a cache line
// another core is writing, since the slots, the bitmap and the counters
// (stats.go) all belong to the shard. When every lock is held, the span
// publishes to home and waits for that shard's harvester; under
// concurrency those sweeps form the micro-batches. A multi-span batch
// deals its spans from a shared round-robin cursor. The worker goroutine
// is the fallback harvester: it takes the spans of a ClassifyBatch its
// caller has not reached yet and covers producers that gave up spinning
// and parked.

import (
	"math/bits"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/ir"
)

// latSampleEvery samples the latency timestamp pair on every Nth ticket
// per shard (must be a power of two). Ticket 0 is always sampled, so the
// first request of a deployment lands in the histogram and quantiles are
// nonzero as soon as traffic flows. Counters (accepted/completed/
// per-class) still see every vector — only the two time.Now() calls and
// the histogram update are sampled, once per sampled span.
const latSampleEvery = 8

// minSpan is the fewest vectors a ClassifyBatch hands to a second shard:
// 32 tiles of the batch kernel. A smaller batch is one span, classified
// inline by its caller — waking another shard's worker costs more than
// the tens of µs of kernel time it would take over.
const minSpan = 32 * ir.Tile

// awaitSpinRounds bounds how long a producer re-tries the harvest lock
// (yielding between attempts) before it arms its waiter flag and parks.
const awaitSpinRounds = 128

// slot is one ring entry. seq is the Vyukov sequence gate: a producer
// holding ticket t may write the slot when seq==t; the harvester frees it
// for ticket t+capacity by storing t+capacity after detaching the span.
// Exactly one cache line, so neighboring slots don't share one (a single
// vector walks the ring a slot per call: a second line per slot shows in
// the in-process tail latency).
type slot struct {
	seq atomic.Uint64
	xs  [][]float64 // the span's rows, in the caller's memory
	out []int       // where their classes go, likewise
	req *request    // the call to tell when the span is delivered
}

// cacheLinePad keeps the fields on either side of it off each other's
// cache line.
type cacheLinePad struct{ _ [64]byte }

// lineWords rounds a count of 8-byte words up to whole 64-byte cache
// lines, so a shard's small hot arrays never share a line with another
// shard's allocation.
func lineWords(n int) int { return (n + 7) &^ 7 }

// shard is one inference lane: a slot ring, its ready-bitmap, the
// admission credits, a prepared predictor, the park/wake plumbing for
// its fallback worker, and its share of the deployment's counters. The
// predictor is guarded by the busy flag — only the harvester that owns
// busy may touch it.
type shard struct {
	tickets atomic.Uint64 // fetch-add slot claim
	credits atomic.Int64  // vectors admitted and not yet harvested (≤ cap)
	batches atomic.Int32  // multi-vector spans among them: never held back
	busy    atomic.Uint32 // harvest lock: 1 while a harvester owns pred
	parked  atomic.Uint32 // worker is parked; Swap(1→0) claims the wake
	wake    chan struct{} // 1-slot worker unpark token

	cap    uint64
	mask   uint64
	ready  []atomic.Uint64 // the bitmap scoreboard, 64 slots per word
	slots  []slot
	starts []time.Duration // when slot i's span was admitted, if its ticket is sampled: since the runtime's start

	pred   *ir.Predictor
	counts []uint64 // per-class tally of the span in hand; busy-guarded

	// Adaptive-flush state (predict.go). Producers feed the shared
	// arrival history with relaxed atomics (lastNS, gapHist); the gaps
	// predictor itself, like pred, is guarded by the busy flag. nil
	// unless the runtime's flush policy is FlushAdaptive. flushDeadline
	// is set by a hold that expired (busy-guarded) and consumed by the
	// next sweep for DeadlineFlushes accounting.
	gaps          *gapPredictor
	lastNS        atomic.Int64  // previous arrival, UnixNano
	gapHist       atomic.Uint64 // packed 4-bit gap buckets, newest lowest
	flushDeadline bool

	_     cacheLinePad
	stats counters // this shard's metrics (stats.go), on lines of their own
	_     cacheLinePad
}

func newShard(model *ir.Model, capacity uint64) (*shard, error) {
	pred, err := ir.NewPredictor(model)
	if err != nil {
		return nil, err
	}
	words, classes := int(capacity+63)/64, model.Outputs
	sh := &shard{
		cap:    capacity,
		mask:   capacity - 1,
		ready:  make([]atomic.Uint64, lineWords(words))[:words],
		slots:  make([]slot, capacity),
		starts: make([]time.Duration, lineWords(int(capacity)))[:capacity],
		wake:   make(chan struct{}, 1),
		pred:   pred,
		counts: make([]uint64, lineWords(classes))[:classes],
	}
	sh.stats.perClass = make([]atomic.Uint64, lineWords(classes))[:classes]
	for i := range sh.slots {
		sh.slots[i].seq.Store(uint64(i))
	}
	return sh, nil
}

// hasReady reports whether any slot bit is published.
func (sh *shard) hasReady() bool {
	for i := range sh.ready {
		if sh.ready[i].Load() != 0 {
			return true
		}
	}
	return false
}

// enqueue admits one span of r into sh's ring: credits, ticket, slot
// write, bitmap publish. It does not block on a full ring — it sheds (the
// caller decides whether to count the drop or retry). A span takes one
// credit per vector and one slot, so QueueDepth bounds vectors and the
// ring cannot run out of slots before it runs out of credits. The rare
// seq spin waits for a harvester to detach the slot's previous occupant
// (possible only when the ring is nearly full); owned says the caller
// holds sh's harvest lock, so it is that harvester and sweeps instead.
func (rt *Runtime) enqueue(sh *shard, r *request, xs [][]float64, out []int, owned bool) error {
	n := int64(len(xs))
	if sh.credits.Add(n) > int64(sh.cap) {
		sh.credits.Add(-n)
		return ErrOverloaded
	}
	// Closed is checked after the credit so Close's drain poll cannot
	// miss an in-flight producer: if this load sees the flag unset, the
	// credit above is already visible to the poll.
	if rt.closed.Load() {
		sh.credits.Add(-n)
		return ErrClosed
	}
	if sh.gaps != nil {
		// Feed the arrival predictor: one relaxed Swap for the gap, one
		// load/store pair to shift the bucket into the shared history.
		// Concurrent producers may drop a nibble — the predictor is a
		// timing heuristic, so lossy history is acceptable.
		now := time.Now().UnixNano()
		if prev := sh.lastNS.Swap(now); prev != 0 {
			h := sh.gapHist.Load()
			sh.gapHist.Store(h<<4 | uint64(gapBucket(now-prev)))
		}
	}
	t := sh.tickets.Add(1) - 1
	i := t & sh.mask
	s := &sh.slots[i]
	for s.seq.Load() != t {
		if owned {
			rt.sweep(sh)
		}
		runtime.Gosched()
	}
	s.xs, s.out, s.req = xs, out, r
	if t&(latSampleEvery-1) == 0 {
		sh.starts[i] = time.Since(rt.start)
	}
	if n > 1 {
		sh.batches.Add(1)
	}
	sh.stats.accepted.Add(uint64(n))
	sh.ready[i>>6].Or(1 << (i & 63))
	return nil
}

// sweep is one micro-batch: the harvester (which must own sh.busy) swaps
// each bitmap word to zero and classifies every published span in
// trailing-zeros order, one predictor call each. Slots are freed the
// moment the span is detached — before the classify — so the ring never
// stays clogged behind a slow inference. Returns the number of vectors
// harvested.
func (rt *Runtime) sweep(sh *shard) int {
	n := 0
	for w := range sh.ready {
		// A plain load filters empty words so the scan costs a cache hit
		// per word, not an atomic RMW — with the default ring size most
		// words are empty on any given sweep.
		if sh.ready[w].Load() == 0 {
			continue
		}
		word := sh.ready[w].Swap(0)
		for word != 0 {
			i := w<<6 | bits.TrailingZeros64(word)
			word &= word - 1
			s := &sh.slots[i]
			xs, out, r := s.xs, s.out, s.req
			s.xs, s.out, s.req = nil, nil, nil
			t := s.seq.Load() // the ticket that published the slot
			sampled := t&(latSampleEvery-1) == 0
			var start time.Duration
			if sampled {
				start = sh.starts[i]
			}
			s.seq.Store(t + sh.cap) // free the slot, and starts[i], for ticket t+cap
			sh.credits.Add(-int64(len(xs)))
			if rt.testHook != nil {
				rt.testHook()
			}
			var err error
			if len(xs) == 1 {
				// Straight to Classify: the batch entry point's frames on
				// top of this call chain outgrow the 2 KB stack a fresh
				// goroutine starts with — every shadow mirror is one —
				// and growing it costs three classifies.
				if out[0], err = sh.pred.Classify(xs[0]); err != nil {
					out[0] = -1
				}
			} else {
				sh.batches.Add(-1)
				err = sh.pred.ClassifyBatch(xs, out)
			}
			if sampled {
				sh.stats.observeLatency(time.Since(rt.start) - start)
			}
			failed := 0
			if err != nil {
				// The predictor's only error is a row of the wrong width.
				for _, x := range xs {
					if len(x) != rt.model.Inputs {
						failed++
					}
				}
				first := err // a copy to escape, so only this path allocates
				r.err.CompareAndSwap(nil, &first)
			}
			sh.stats.observe(sh.counts, out, failed)
			// The span is delivered; r may be back in the pool, and in
			// another caller's hands, the moment pending reads zero.
			if r.pending.Add(-1) == 0 && r.waiter.Swap(0) == 1 {
				r.wake <- struct{}{}
			}
			n += len(xs)
		}
	}
	if n > 0 {
		deadline := sh.flushDeadline
		sh.flushDeadline = false
		sh.stats.flush(n, deadline, n >= rt.batchSize)
	}
	return n
}

// harvest acquires the harvest lock if free and drains the shard.
// Returns false if another harvester owns it.
func (rt *Runtime) harvest(sh *shard, hold bool) bool {
	if !sh.busy.CompareAndSwap(0, 1) {
		return false
	}
	rt.drain(sh, hold)
	return true
}

// claim takes the first harvest lock it can win for a lone span, from
// home on round the shards, and returns its shard. When every lock is
// held it returns (home, false): the span publishes to home and waits
// for that shard's harvester.
func (rt *Runtime) claim(home int) (int, bool) {
	for k, i := 0, home; k < len(rt.rings); k++ {
		// Load before the CAS: a held lock's line stays shared instead
		// of bouncing to this core for a CAS that fails.
		if busy := &rt.rings[i].busy; busy.Load() == 0 && busy.CompareAndSwap(0, 1) {
			return i, true
		}
		if i++; i == len(rt.rings) {
			i = 0
		}
	}
	return home, false
}

// drain runs sh's harvest, for the owner of its harvest lock: sweep
// until the bitmap stays empty, then release the lock. hold lets the
// flush policy (predict.go) delay the first sweep; a batch caller
// passes false — it is waiting on spans, which are never held.
func (rt *Runtime) drain(sh *shard, hold bool) {
	if hold && rt.flush != FlushGreedy {
		if !sh.hasReady() {
			// The policy decides on what is ready now, and nothing is:
			// a span published from here on is for a harvest that can
			// hold it, not for this one to sweep unheld. (A producer
			// whose claim lost to this lock is publishing one.)
			sh.busy.Store(0)
			return
		}
		switch rt.flush {
		case FlushAdaptive:
			rt.adaptiveHold(sh)
		case FlushFixed:
			rt.fixedHold(sh)
		}
	}
	for rt.sweep(sh) > 0 {
	}
	sh.busy.Store(0)
}

// await blocks until every span of r is delivered; the spans went to n
// consecutive shards from index first on, wrapping. Fast path: become a shard's
// harvester and classify the spans inline. If other harvesters own the
// shards, spin briefly (they are probably classifying our spans right
// now), then arm the waiter flag, make sure the fallback workers are
// awake (a bit of ours may still be unclaimed in a bitmap), and park on
// the request's 1-slot channel. A token can come from a harvester that
// delivered the pooled request's previous call and was descheduled
// before it looked at the waiter flag, so a wake-up is a reason to look
// again, not proof. hold is harvest's.
func (rt *Runtime) await(r *request, first, n int, hold bool) {
	on := func(k int) *shard {
		if i := first + k; i < len(rt.rings) {
			return rt.rings[i]
		}
		return rt.rings[first+k-len(rt.rings)]
	}
	for round := 0; ; round++ {
		for k := 0; k < n && r.pending.Load() != 0; k++ {
			rt.harvest(on(k), hold)
		}
		if r.pending.Load() == 0 {
			return
		}
		if round < awaitSpinRounds {
			runtime.Gosched()
			continue
		}
		r.waiter.Store(1)
		if r.pending.Load() == 0 {
			if r.waiter.Swap(0) == 0 {
				// The harvester claimed the flag and is posting the
				// token; drain it so the pooled channel stays empty.
				<-r.wake
			}
			return
		}
		for k := 0; k < n; k++ {
			rt.unpark(on(k))
		}
		<-r.wake
	}
}

// unpark wakes sh's worker if it is parked. The Swap makes the claim
// exclusive, so exactly one token is ever in flight.
func (rt *Runtime) unpark(sh *shard) {
	if sh.parked.Swap(0) == 1 {
		sh.wake <- struct{}{}
	}
}

// worker is a shard's fallback harvester: it harvests whatever the
// producers' inline path didn't, and parks futex-style while the bitmap
// stays empty. rt.stop closes only after Close's drain completed, so
// exit never abandons published work.
func (rt *Runtime) worker(sh *shard) {
	defer rt.workers.Done()
	for {
		rt.harvest(sh, true)
		if sh.hasReady() {
			// Bits are published but another harvester owns the shard;
			// stay runnable until the ring is visibly drained.
			runtime.Gosched()
			continue
		}
		select {
		case <-rt.stop:
			return
		default:
		}
		sh.parked.Store(1)
		if sh.hasReady() {
			// Lost the race with a publisher: reclaim the flag, or drain
			// the token the publisher is posting.
			if sh.parked.Swap(0) == 0 {
				<-sh.wake
			}
			continue
		}
		select {
		case <-sh.wake:
		case <-rt.stop:
			return
		}
	}
}
