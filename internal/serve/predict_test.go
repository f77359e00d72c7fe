package serve

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// classDigest hashes a class sequence the same way the CLI does
// (int32 little-endian), so "byte-identical" means the same thing in
// both places.
func classDigest(classes []int) [32]byte {
	h := sha256.New()
	var buf [4]byte
	for _, c := range classes {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(c)))
		h.Write(buf[:])
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

func traceFor(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
	}
	return xs
}

// TestAdaptiveFlushBitIdentity is the tentpole's correctness gate: the
// adaptive flush policy changes only when sweeps run, never what they
// compute, so classification output is byte-identical to the greedy
// run across shard counts — race-hammered with concurrent clients.
func TestAdaptiveFlushBitIdentity(t *testing.T) {
	xs := traceFor(600, 42)
	model := stepModel()

	// Reference: sequential greedy classification.
	ref, err := New(model, ServingConfig{Shards: 1, QueueDepth: 256})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, len(xs))
	for i, x := range xs {
		if want[i], err = ref.Classify(x); err != nil {
			t.Fatal(err)
		}
	}
	ref.Close()
	wantDigest := classDigest(want)

	for _, shards := range []int{1, 2, 4} {
		for _, adaptive := range []bool{false, true} {
			t.Run(fmt.Sprintf("shards=%d/adaptive=%v", shards, adaptive), func(t *testing.T) {
				cfg := ServingConfig{Shards: shards, BatchSize: 8, QueueDepth: 4096}
				if adaptive {
					cfg.AdaptiveFlush = true
					cfg.MaxDelayNS = delayNS(200 * time.Microsecond)
				}
				rt, err := New(model, cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer rt.Close()
				got := make([]int, len(xs))
				var wg sync.WaitGroup
				for c := 0; c < 8; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						for i := c; i < len(xs); i += 8 {
							cl, err := rt.Classify(xs[i])
							for err == ErrOverloaded {
								cl, err = rt.Classify(xs[i])
							}
							if err != nil {
								t.Errorf("classify %d: %v", i, err)
								return
							}
							got[i] = cl
						}
					}(c)
				}
				wg.Wait()
				if classDigest(got) != wantDigest {
					t.Fatal("adaptive flush changed classification output")
				}
			})
		}
	}
}

// TestFixedDeadlineHolds covers the fixed policy: with an explicitly
// configured positive max_delay_ns, a lone request is held toward the
// deadline (the pre-ring deadline-batching semantics, now opt-in) and
// the flush is accounted as a deadline flush.
func TestFixedDeadlineHolds(t *testing.T) {
	const delay = 30 * time.Millisecond
	cfg := ServingConfig{Shards: 1, BatchSize: 64, QueueDepth: 64, MaxDelayNS: delayNS(delay)}
	rt, err := New(stepModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	start := time.Now()
	if c, err := rt.Classify([]float64{1, 0}); err != nil || c != 1 {
		t.Fatalf("class=%d err=%v", c, err)
	}
	if elapsed := time.Since(start); elapsed < delay/3 {
		t.Fatalf("fixed deadline must hold a lone request: returned after %v (deadline %v)", elapsed, delay)
	}
	if st := rt.Stats(); st.DeadlineFlushes == 0 {
		t.Fatalf("hold release must count as a deadline flush: %+v", st)
	}
}

// TestAdaptiveFlushQuietStaysGreedy covers the other half of the
// policy: under quiet traffic (gaps far beyond the deadline budget)
// the predictor votes "won't fill", so lone requests keep greedy
// latency even though the same delay would hold them under the
// fixed policy.
func TestAdaptiveFlushQuietStaysGreedy(t *testing.T) {
	const delay = 30 * time.Millisecond
	cfg := ServingConfig{
		Shards: 1, BatchSize: 64, QueueDepth: 64,
		MaxDelayNS: delayNS(delay), AdaptiveFlush: true,
	}
	rt, err := New(stepModel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	// Quiet phase: well-spaced arrivals teach the predictor large gaps.
	var worst time.Duration
	for i := 0; i < 12; i++ {
		time.Sleep(3 * time.Millisecond)
		start := time.Now()
		if _, err := rt.Classify([]float64{1, 0}); err != nil {
			t.Fatal(err)
		}
		if e := time.Since(start); i >= 4 && e > worst {
			// Skip the first few: the predictor needs history.
			worst = e
		}
	}
	if worst >= delay/3 {
		t.Fatalf("quiet traffic must keep greedy latency under adaptive flush: worst %v (deadline %v)", worst, delay)
	}
}

// TestGapPredictorLearns unit-tests the TAGE predictor: a repeating
// gap pattern that defeats the order-1 base table is captured by the
// tagged history tables.
func TestGapPredictorLearns(t *testing.T) {
	p := new(gapPredictor)
	// Pattern where the successor of bucket 3 alternates by context:
	// ... 3,5, 3,9, 3,5, 3,9 ... — order-1 (base) cannot exceed 50% on
	// the successor of 3, history tables can.
	pattern := []uint8{3, 5, 3, 9}
	for i := 0; i < 40; i++ {
		p.observe(pattern[i%len(pattern)])
	}
	correct := 0
	const rounds = 100
	for i := 0; i < rounds; i++ {
		actual := pattern[i%len(pattern)]
		if p.predict() == actual {
			correct++
		}
		p.observe(actual)
	}
	if correct < rounds*3/4 {
		t.Fatalf("predictor stuck at %d/%d on a context-dependent pattern", correct, rounds)
	}
}

func TestGapBucketQuantization(t *testing.T) {
	cases := []struct {
		ns   int64
		want uint8
	}{
		{-5, 0}, {0, 0}, {100, 0}, {200, 1}, {1000, 3}, {100_000, 10}, {2_000_000, 14}, {1 << 40, 15},
	}
	for _, c := range cases {
		if got := gapBucket(c.ns); got != c.want {
			t.Fatalf("gapBucket(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
	for b := uint8(0); b < gapBuckets; b++ {
		if gapBucket(bucketNS(b)) < b {
			t.Fatalf("bucketNS(%d)=%d maps below its bucket", b, bucketNS(b))
		}
	}
}
