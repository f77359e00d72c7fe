package serve

// RawStats is the wire form of the summed-histogram accumulator: plain
// counters plus the log2 latency histogram, JSON-shaped so nodes can
// ship their per-endpoint tallies across the cluster and merge them
// exactly. Counters sum; quantiles are derived only after merging, over
// the combined histogram — averaging per-node p99s would be meaningless,
// summing histograms is exact.

import "time"

// RawStats carries mergeable serving metrics. The zero value is a valid
// empty accumulator.
type RawStats struct {
	Accepted  uint64 `json:"accepted"`
	Completed uint64 `json:"completed"`
	Dropped   uint64 `json:"dropped"`
	Errors    uint64 `json:"errors"`

	Batches         uint64 `json:"batches"`
	Batched         uint64 `json:"batched"`
	FullFlushes     uint64 `json:"full_flushes"`
	DeadlineFlushes uint64 `json:"deadline_flushes"`

	// PerClass tallies delivered predictions by class index.
	PerClass []uint64 `json:"per_class,omitempty"`
	// Latency is the log2 histogram: bucket i counts sampled requests
	// with latency in [2^(i-1), 2^i) ns. Trailing zero buckets are
	// trimmed on the wire; Merge and Stats accept any length ≤ 64.
	Latency []uint64 `json:"latency,omitempty"`
	// UptimeNS is the source deployment's uptime. Merge keeps the max:
	// cluster throughput is completed work over the longest window.
	UptimeNS int64 `json:"uptime_ns"`
}

// grow returns s zero-extended to at least n elements.
func grow(s []uint64, n int) []uint64 {
	if len(s) >= n {
		return s
	}
	return append(s, make([]uint64, n-len(s))...)
}

// Merge folds o into r: counters and histograms sum exactly, uptime
// keeps the maximum. Histograms of different trimmed lengths align on
// bucket index.
func (r *RawStats) Merge(o RawStats) {
	r.Accepted += o.Accepted
	r.Completed += o.Completed
	r.Dropped += o.Dropped
	r.Errors += o.Errors
	r.Batches += o.Batches
	r.Batched += o.Batched
	r.FullFlushes += o.FullFlushes
	r.DeadlineFlushes += o.DeadlineFlushes
	r.PerClass = grow(r.PerClass, len(o.PerClass))
	for i, c := range o.PerClass {
		r.PerClass[i] += c
	}
	r.Latency = grow(r.Latency, len(o.Latency))
	for i, c := range o.Latency {
		r.Latency[i] += c
	}
	if o.UptimeNS > r.UptimeNS {
		r.UptimeNS = o.UptimeNS
	}
}

// Stats derives the human-facing snapshot — quantiles over the merged
// histogram, throughput over the merged uptime.
func (r RawStats) Stats() Stats {
	out := Stats{
		Accepted:        r.Accepted,
		Completed:       r.Completed,
		Dropped:         r.Dropped,
		Errors:          r.Errors,
		Batches:         r.Batches,
		FullFlushes:     r.FullFlushes,
		DeadlineFlushes: r.DeadlineFlushes,
		Uptime:          time.Duration(r.UptimeNS),
		PerClass:        append([]uint64(nil), r.PerClass...),
	}
	if out.PerClass == nil {
		out.PerClass = []uint64{}
	}
	if out.Batches > 0 {
		out.MeanBatch = float64(r.Batched) / float64(out.Batches)
	}
	if out.Uptime > 0 {
		out.Throughput = float64(out.Completed) / out.Uptime.Seconds()
	}
	out.P50 = LatencyQuantile(r.Latency, 0.50)
	out.P99 = LatencyQuantile(r.Latency, 0.99)
	return out
}

// RawStats returns the endpoint's merged counters and latency histogram
// in wire form: the same accumulation Stats performs, before quantile
// derivation, so a peer can merge it with other nodes' tallies.
func (e *Endpoint) RawStats() RawStats {
	e.mu.Lock()
	rts := make([]*Runtime, 0, len(e.revs))
	for _, r := range e.revs {
		if rt := r.rt.Load(); rt != nil {
			rts = append(rts, rt)
		}
	}
	start := e.start
	e.mu.Unlock()

	var out RawStats
	for _, rt := range rts {
		out.Merge(rt.raw())
	}
	out.UptimeNS = int64(time.Since(start))
	return out
}
