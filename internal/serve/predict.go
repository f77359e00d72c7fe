package serve

// The adaptive flush policy: a TAGE-flavored inter-arrival predictor
// per shard (the CLZ-TAGE idea from the SupraX notes, shrunk to the
// serving problem).
//
// Arrival gaps are quantized to log2 buckets with a count-leading-zeros
// (bits.Len64) — bucket b covers gaps around 2^(b+6) ns, so 16 buckets
// (one hex nibble) span 64ns..2ms+. Producers record the stream of
// recent buckets into a shared 64-bit packed history with relaxed
// atomics; the harvester (which owns the shard's busy flag) replays the
// new nibbles into its private predictor.
//
// The predictor is classic TAGE in miniature: a base order-1 Markov
// table (last bucket → next bucket, 2-bit hysteresis) plus tagged
// tables indexed by geometrically longer history suffixes (2/4/8
// nibbles). The longest matching tagged entry provides the prediction;
// allocation-on-mispredict steals a not-useful entry in a longer
// table. All state is a few hundred bytes per shard and is touched
// only under the busy flag, so no extra synchronization exists on the
// classify path.
//
// The policy the prediction drives is deliberately simple: before a
// sweep, if the batch is short of BatchSize, predict the next gap. If
// the predicted gaps say the batch will fill within the hold bound
// (ServingConfig.Flush), hold for it (bursts get full batches);
// otherwise sweep now (quiet traffic keeps greedy latency). Holding changes only *when* a
// sweep runs — each request is still classified independently by the
// same predictor — so classification output is bit-identical to the
// greedy policy.

import (
	"math/bits"
	"time"
)

const (
	gapBuckets  = 16 // one nibble per gap
	predTables  = 3  // tagged tables with geometric history lengths
	predEntries = 64 // entries per tagged table
	// holdPollStep is the sleep quantum inside a hold loop. Coarse on
	// purpose: holds are hundreds of µs and the loop re-checks the
	// ready count, the target, and the close flag each step.
	holdPollStep = 20 * time.Microsecond
)

// predHistNibbles is each tagged table's history length, in nibbles
// (arrivals). Geometric, TAGE-style.
var predHistNibbles = [predTables]uint{2, 4, 8}

// gapBucket quantizes an inter-arrival gap (ns) to a 4-bit log2 bucket:
// bucket 0 is ≤128ns, each bucket doubles, bucket 15 is ≥2.1ms.
func gapBucket(ns int64) uint8 {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns)) // 0..64
	if b <= 7 {
		return 0
	}
	b -= 7
	if b > gapBuckets-1 {
		return gapBuckets - 1
	}
	return uint8(b)
}

// bucketNS is the representative gap for a bucket (its upper bound).
func bucketNS(b uint8) int64 { return 1 << (uint(b) + 7) }

// predEntry is one tagged-table entry.
type predEntry struct {
	tag  uint8
	pred uint8 // predicted next bucket
	ctr  uint8 // confidence, 0..3
	u    uint8 // usefulness, 0..3
}

// gapPredictor is the per-shard TAGE predictor. Guarded by the shard's
// busy flag; never touched by producers.
type gapPredictor struct {
	hist     uint64 // private packed history, newest nibble lowest
	last     uint8  // most recent bucket (base-table index)
	consumed uint64 // arrivals already replayed from the shared history

	base    [gapBuckets]uint8 // order-1 Markov prediction
	baseCtr [gapBuckets]uint8 // 2-bit hysteresis for base
	tables  [predTables][predEntries]predEntry
}

// mix64 is the splitmix64 finalizer, used to fold history into table
// indices and tags.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// slotFor returns table t's index and tag for the current history.
func (p *gapPredictor) slotFor(t int) (idx int, tag uint8) {
	h := p.hist & (1<<(4*predHistNibbles[t]) - 1)
	m := mix64(h*uint64(predTables+1) + uint64(t) + 1)
	return int(m % predEntries), uint8(m >> 56)
}

// predict returns the next-gap bucket: the longest matching tagged
// entry with any confidence, else the base table.
func (p *gapPredictor) predict() uint8 {
	for t := predTables - 1; t >= 0; t-- {
		idx, tag := p.slotFor(t)
		e := &p.tables[t][idx]
		if e.tag == tag && e.ctr > 0 {
			return e.pred
		}
	}
	return p.base[p.last]
}

// observe feeds one actual gap bucket: update the provider (or
// allocate on mispredict), update the base table, shift history.
func (p *gapPredictor) observe(actual uint8) {
	provider := -1
	var predicted uint8
	for t := predTables - 1; t >= 0; t-- {
		idx, tag := p.slotFor(t)
		e := &p.tables[t][idx]
		if e.tag == tag && e.ctr > 0 {
			provider, predicted = t, e.pred
			break
		}
	}
	if provider < 0 {
		predicted = p.base[p.last]
	}

	if provider >= 0 {
		idx, _ := p.slotFor(provider)
		e := &p.tables[provider][idx]
		if e.pred == actual {
			if e.ctr < 3 {
				e.ctr++
			}
			if e.u < 3 {
				e.u++
			}
		} else {
			if e.ctr > 0 {
				e.ctr--
			}
			if e.ctr == 0 {
				e.pred = actual
				e.ctr = 1
			}
			if e.u > 0 {
				e.u--
			}
		}
	}

	// Base table: 2-bit hysteresis Markov update.
	if p.base[p.last] == actual {
		if p.baseCtr[p.last] < 3 {
			p.baseCtr[p.last]++
		}
	} else if p.baseCtr[p.last] > 0 {
		p.baseCtr[p.last]--
	} else {
		p.base[p.last] = actual
		p.baseCtr[p.last] = 1
	}

	// Allocate a longer-history entry on mispredict, TAGE-style:
	// first not-useful slot above the provider; decay usefulness when
	// every candidate is defended.
	if predicted != actual {
		allocated := false
		for t := provider + 1; t < predTables; t++ {
			idx, tag := p.slotFor(t)
			e := &p.tables[t][idx]
			if e.u == 0 {
				*e = predEntry{tag: tag, pred: actual, ctr: 1}
				allocated = true
				break
			}
		}
		if !allocated {
			for t := provider + 1; t < predTables; t++ {
				idx, _ := p.slotFor(t)
				if e := &p.tables[t][idx]; e.u > 0 {
					e.u--
				}
			}
		}
	}

	p.hist = p.hist<<4 | uint64(actual)
	p.last = actual
}

// sync replays arrivals the producers published since the last call
// (bounded by the 16 nibbles the shared word holds).
func (p *gapPredictor) sync(sh *shard) {
	t := sh.tickets.Load()
	n := t - p.consumed
	if n == 0 {
		return
	}
	p.consumed = t
	if n > 16 {
		n = 16
	}
	h := sh.gapHist.Load()
	for i := int(n) - 1; i >= 0; i-- {
		p.observe(uint8(h >> (4 * i) & 0xf))
	}
}

// readyCount counts published-but-unharvested slots.
func (sh *shard) readyCount() int {
	n := 0
	for i := range sh.ready {
		n += bits.OnesCount64(sh.ready[i].Load())
	}
	return n
}

// holdTarget is the batch a hold tries to fill: BatchSize, bounded by
// the ring (a batch larger than the ring can never fill).
func (rt *Runtime) holdTarget(sh *shard) int {
	t := rt.batchSize
	if c := int(sh.cap); t > c {
		t = c
	}
	return t
}

// holdFor blocks the harvester until the shard has target published
// requests, a ClassifyBatch span arrives (its caller already did the
// batching; it is swept at once), the deadline passes, or the runtime
// starts draining. Returns true when the hold ended on the deadline with
// work pending — the next sweep is a deadline flush.
func (rt *Runtime) holdFor(sh *shard, deadline time.Time, target int) bool {
	for {
		if rt.closed.Load() || sh.batches.Load() > 0 {
			return false
		}
		if sh.readyCount() >= target {
			return false
		}
		if !time.Now().Before(deadline) {
			return sh.readyCount() > 0
		}
		time.Sleep(holdPollStep)
	}
}

// fixedHold is the fixed-deadline flush policy (FlushFixed: a positive
// max_delay_ns, no predictor): hold every partial batch up to the bound.
// This is the classic deadline-batching trade — full batches at the cost
// of up to the bound of added latency on quiet traffic — and the
// baseline the adaptive policy is measured against.
func (rt *Runtime) fixedHold(sh *shard) {
	n := sh.readyCount()
	if n == 0 || n >= rt.holdTarget(sh) {
		return
	}
	sh.flushDeadline = rt.holdFor(sh, time.Now().Add(rt.maxDelay), rt.holdTarget(sh))
}

// adaptiveHold holds only when the predictor says the batch will fill
// inside the hold bound: predicted next-gap × remaining slots ≤
// bound means a burst is in flight and waiting buys a full batch;
// otherwise the shard sweeps immediately and quiet traffic keeps the
// greedy latency profile.
func (rt *Runtime) adaptiveHold(sh *shard) {
	n := sh.readyCount()
	target := rt.holdTarget(sh)
	if n == 0 || n >= target {
		return
	}
	sh.gaps.sync(sh)
	eta := bucketNS(sh.gaps.predict()) * int64(target-n)
	if eta > int64(rt.maxDelay) {
		return
	}
	sh.flushDeadline = rt.holdFor(sh, time.Now().Add(rt.maxDelay), target)
}
