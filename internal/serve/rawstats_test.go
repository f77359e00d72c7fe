package serve

// RawStats is the cluster's stats wire form: counters must sum exactly
// under Merge, quantiles must be derived over the combined histogram
// (never averaged), and the trimmed wire encoding must merge with
// full-width accumulators without loss.

import (
	"encoding/json"
	"testing"
	"time"
)

func TestRawStatsMergeSumsExactly(t *testing.T) {
	a := RawStats{
		Accepted: 100, Completed: 90, Dropped: 10, Errors: 2,
		Batches: 20, Batched: 85, FullFlushes: 15, DeadlineFlushes: 5,
		PerClass: []uint64{40, 50},
		Latency:  []uint64{0, 3, 7}, // trimmed wire form
		UptimeNS: int64(2 * time.Second),
	}
	b := RawStats{
		Accepted: 50, Completed: 45, Dropped: 5, Errors: 1,
		Batches: 10, Batched: 42, FullFlushes: 8, DeadlineFlushes: 2,
		PerClass: []uint64{20, 20, 5}, // wider class vector
		Latency:  []uint64{1, 1, 1, 1, 10},
		UptimeNS: int64(3 * time.Second),
	}
	m := a
	m.Merge(b)
	if m.Accepted != 150 || m.Completed != 135 || m.Dropped != 15 || m.Errors != 3 {
		t.Fatalf("counter merge: %+v", m)
	}
	if len(m.PerClass) != 3 || m.PerClass[0] != 60 || m.PerClass[1] != 70 || m.PerClass[2] != 5 {
		t.Fatalf("per-class merge: %v", m.PerClass)
	}
	want := []uint64{1, 4, 8, 1, 10}
	if len(m.Latency) != len(want) {
		t.Fatalf("latency merge length: %v", m.Latency)
	}
	for i := range want {
		if m.Latency[i] != want[i] {
			t.Fatalf("latency bucket %d = %d, want %d", i, m.Latency[i], want[i])
		}
	}
	if m.UptimeNS != int64(3*time.Second) {
		t.Fatalf("uptime merge keeps max: %d", m.UptimeNS)
	}
}

func TestRawStatsQuantilesOverMergedHistogram(t *testing.T) {
	// Node A: 51 requests in bucket 3 (≤8ns). Node B: 49 in bucket 10
	// (≤1024ns). The merged p50 must sit at the bucket-3 bound and the
	// p99 at the bucket-10 bound — averaging per-node quantiles could
	// never produce this.
	a := RawStats{Completed: 51, Latency: make([]uint64, 4)}
	a.Latency[3] = 51
	b := RawStats{Completed: 49, Latency: make([]uint64, 11)}
	b.Latency[10] = 49
	m := a
	m.Merge(b)
	st := m.Stats()
	if st.P50 != 8*time.Nanosecond {
		t.Fatalf("merged p50 = %v, want 8ns", st.P50)
	}
	if st.P99 != 1024*time.Nanosecond {
		t.Fatalf("merged p99 = %v, want 1024ns", st.P99)
	}
}

func TestRawStatsStatsDerivations(t *testing.T) {
	r := RawStats{
		Accepted: 10, Completed: 10,
		Batches: 4, Batched: 10,
		UptimeNS: int64(2 * time.Second),
	}
	st := r.Stats()
	if st.MeanBatch != 2.5 {
		t.Fatalf("mean batch %v", st.MeanBatch)
	}
	if st.Throughput != 5 {
		t.Fatalf("throughput %v", st.Throughput)
	}
	// Zero value is a valid empty accumulator.
	var zero RawStats
	zst := zero.Stats()
	if zst.P50 != 0 || zst.P99 != 0 || zst.Throughput != 0 {
		t.Fatalf("zero stats: %+v", zst)
	}
}

func TestRawStatsWireRoundTrip(t *testing.T) {
	r := RawStats{Accepted: 7, Completed: 6, Latency: []uint64{0, 2, 4}, PerClass: []uint64{3, 3}, UptimeNS: 12345}
	raw, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back RawStats
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Accepted != r.Accepted || len(back.Latency) != 3 || back.Latency[2] != 4 || back.UptimeNS != 12345 {
		t.Fatalf("wire round trip: %+v", back)
	}
}

func TestEndpointRawStatsMatchesStats(t *testing.T) {
	ep := mustEndpoint(t, 0, ServingConfig{BatchSize: 8})
	for i := 0; i < 30; i++ {
		if _, err := ep.Classify([]float64{0.5, 1.5}); err != nil {
			t.Fatal(err)
		}
	}
	raw := ep.RawStats()
	direct := ep.Stats().Merged
	derived := raw.Stats()
	if derived.Accepted != direct.Accepted || derived.Completed != direct.Completed {
		t.Fatalf("raw-derived %+v vs direct %+v", derived, direct)
	}
	if derived.P99 != direct.P99 {
		t.Fatalf("raw-derived p99 %v vs direct %v", derived.P99, direct.P99)
	}
}
