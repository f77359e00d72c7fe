package serve

// Per-deployment metrics, recorded inline on the serving hot path with
// atomics only (no locks, no allocations): counters, per-class tallies,
// and a log2-bucketed latency histogram from which Stats derives p50/p99.
// The memory-centric-profiling lesson applied to serving: latency and
// throughput observability is built into the path, not bolted around it.
// Counters see every vector, added once per harvested span; the latency
// histogram is fed by sampled spans (every latSampleEvery-th ticket per
// shard, ring.go), so the steady-state path sheds the two time.Now()
// calls on the other N-1.
//
// The counters are per shard, on cache lines no other shard writes: a
// producer classifying on its own shard touches no line another core
// does. Readers sum the shards (Runtime.raw); the runtime itself keeps
// only the start time and the drops shed before any shard took them.

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyBuckets is the histogram size: bucket i counts latencies in
// [2^(i-1), 2^i) nanoseconds, covering up to ~9.2 s in bucket 63.
const LatencyBuckets = 64

// counters is one shard's share of the deployment's metrics. accepted
// is added by the shard's producers; every other counter is written
// only by the harvester that owns the shard's busy flag, so it is
// bumped with a plain load and store, no locked add.
type counters struct {
	accepted atomic.Uint64

	completed atomic.Uint64
	errors    atomic.Uint64

	batches         atomic.Uint64
	batched         atomic.Uint64 // sum of flushed batch sizes
	fullFlushes     atomic.Uint64
	deadlineFlushes atomic.Uint64

	perClass []atomic.Uint64
	latency  [LatencyBuckets]atomic.Uint64
}

// bump adds n to a counter only the busy-flag owner writes.
func bump(c *atomic.Uint64, n uint64) { c.Store(c.Load() + n) }

// flush records one harvest sweep (= one micro-batch). full means the
// sweep collected at least BatchSize requests; deadline means a fixed or
// adaptive hold expired before it did.
func (s *counters) flush(size int, deadline, full bool) {
	bump(&s.batches, 1)
	bump(&s.batched, uint64(size))
	switch {
	case deadline:
		bump(&s.deadlineFlushes, 1)
	case full:
		bump(&s.fullFlushes, 1)
	}
}

// observe records one delivered span: completed, errors and per-class
// counts, each added once however long the span. failed of its rows could
// not be classified and hold -1 in out. counts is the caller's zeroed
// per-class scratch, and is zeroed again on return.
func (s *counters) observe(counts []uint64, out []int, failed int) {
	bump(&s.completed, uint64(len(out)))
	if failed > 0 {
		bump(&s.errors, uint64(failed))
	}
	if len(out) == 1 {
		if c := out[0]; c >= 0 && c < len(s.perClass) {
			bump(&s.perClass[c], 1)
		}
		return
	}
	for _, c := range out {
		if c >= 0 && c < len(counts) {
			counts[c]++
		}
	}
	for c, n := range counts {
		if n > 0 {
			bump(&s.perClass[c], n)
			counts[c] = 0
		}
	}
}

// observeLatency records one sampled span's admission-to-delivery time.
func (s *counters) observeLatency(lat time.Duration) {
	bump(&s.latency[LatencyBucket(lat)], 1)
}

// addTo sums the shard's counters into out, whose PerClass and Latency
// are already sized for them. completed is read before accepted, so a
// live snapshot never shows more completed than accepted.
func (s *counters) addTo(out *RawStats) {
	out.Completed += s.completed.Load()
	out.Accepted += s.accepted.Load()
	out.Errors += s.errors.Load()
	out.Batches += s.batches.Load()
	out.Batched += s.batched.Load()
	out.FullFlushes += s.fullFlushes.Load()
	out.DeadlineFlushes += s.deadlineFlushes.Load()
	for i := range s.perClass {
		out.PerClass[i] += s.perClass[i].Load()
	}
	for i := range s.latency {
		out.Latency[i] += s.latency[i].Load()
	}
}

// Stats is a point-in-time snapshot of a deployment's serving metrics.
type Stats struct {
	// Accepted counts vectors admitted to a shard's slot ring; Completed
	// counts vectors classified and delivered (Completed ≤ Accepted,
	// equal once quiescent). Dropped counts vectors shed at the door by
	// backpressure; Errors counts accepted vectors whose inference
	// failed (e.g. wrong feature count).
	Accepted, Completed, Dropped, Errors uint64
	// PerClass tallies delivered predictions by class index.
	PerClass []uint64
	// Batches counts harvest sweeps (= micro-batches); FullFlushes are
	// sweeps that collected at least BatchSize vectors. DeadlineFlushes
	// are sweeps released by an expired hold deadline — always 0 under
	// the default greedy policy, nonzero only when deadline batching is
	// enabled through ServingConfig (max_delay_ns present and positive,
	// or adaptive_flush). MeanBatch is the average sweep size in vectors.
	Batches, FullFlushes, DeadlineFlushes uint64
	MeanBatch                             float64
	// P50 and P99 are latency-quantile upper bounds from the log2
	// histogram (zero until a sampled request completes): time from
	// admission to delivered classification, batching wait included.
	// The histogram is fed by every latSampleEvery-th span per shard — a
	// Classify vector or a shard's share of a ClassifyBatch.
	P50, P99 time.Duration
	// Throughput is delivered requests per second averaged over the
	// deployment's uptime.
	Throughput float64
	// Uptime is the time since the deployment started.
	Uptime time.Duration
}

// raw sums the shards' counters into the mergeable wire form, trailing
// empty latency buckets trimmed.
func (rt *Runtime) raw() RawStats {
	out := RawStats{
		Dropped:  rt.dropped.Load(),
		PerClass: make([]uint64, rt.model.Outputs),
		Latency:  make([]uint64, LatencyBuckets),
		UptimeNS: int64(time.Since(rt.start)),
	}
	for _, sh := range rt.rings {
		sh.stats.addTo(&out)
	}
	used := 0
	for i, c := range out.Latency {
		if c != 0 {
			used = i + 1
		}
	}
	out.Latency = out.Latency[:used]
	return out
}

// LatencyBucket is the log2 histogram's bucket index for one observed
// latency: the bit length of its nanoseconds, capped at the last bucket.
func LatencyBucket(lat time.Duration) int {
	return min(bits.Len64(uint64(max(lat, 0))), LatencyBuckets-1)
}

// LatencyQuantile returns the upper bound (2^bucket ns) of the log2
// histogram bucket containing the q-th observation; 0 when hist is empty.
func LatencyQuantile(hist []uint64, q float64) time.Duration {
	var total uint64
	for _, c := range hist {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank >= total {
		rank = total - 1
	}
	var cum uint64
	for i, c := range hist {
		cum += c
		if cum > rank {
			if i >= 63 {
				return time.Duration(int64(^uint64(0) >> 1))
			}
			return time.Duration(uint64(1) << uint(i))
		}
	}
	return 0
}
