package serve

// Race-hammer coverage for the ring scheduler: many concurrent producers
// against few small rings, forcing constant slot wraparound, bitmap
// contention, caller-harvest vs worker races, and park/unpark cycles.
// Every producer submits its own distinct vector and checks its own
// result, so any slot aliasing, reuse-before-harvest, or torn delivery
// turns into a visible wrong answer — and the whole file runs under
// -race in CI.

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// ringInvariants checks the post-drain white-box state of every shard:
// empty bitmaps, zero credits, and the slot sequence gates accounting
// for exactly the tickets issued (each harvest advances one slot's seq
// by the ring capacity, so the per-slot offsets must sum to the ticket
// count — a slot reused before harvest would break the ledger). A ticket
// is a span of at least one vector, so tickets cannot exceed accepted.
func ringInvariants(t *testing.T, rt *Runtime) {
	t.Helper()
	var tickets uint64
	for si, sh := range rt.rings {
		if sh.hasReady() {
			t.Fatalf("shard %d: bitmap not empty after drain", si)
		}
		if c := sh.credits.Load(); c != 0 {
			t.Fatalf("shard %d: %d credits leaked", si, c)
		}
		if b := sh.batches.Load(); b != 0 {
			t.Fatalf("shard %d: %d batch spans unaccounted", si, b)
		}
		var harvested uint64
		for i := range sh.slots {
			harvested += (sh.slots[i].seq.Load() - uint64(i)) / sh.cap
		}
		if got := sh.tickets.Load(); harvested != got {
			t.Fatalf("shard %d: %d slots harvested vs %d tickets issued", si, harvested, got)
		}
		tickets += sh.tickets.Load()
	}
	if acc := rt.stats.accepted.Load(); tickets > acc {
		t.Fatalf("%d tickets issued vs %d vectors accepted", tickets, acc)
	}
}

// TestRingHammer: concurrent producers + shards on a deliberately tiny
// ring. Accepted must equal completed, every delivered class must match
// the reference for that producer's vector, and the slot ledger must
// balance (no slot reused before its harvest).
func TestRingHammer(t *testing.T) {
	m := dnnModel()
	rt := mustRuntime(t, m, ServingConfig{Shards: 2, BatchSize: 8, QueueDepth: 16})

	const producers = 12
	const perProducer = 400
	xs := make([][]float64, producers)
	want := make([]int, producers)
	rng := rand.New(rand.NewSource(11))
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y, err := m.InferQ(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}

	var issued, shed atomic.Uint64
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for n := 0; n < perProducer; n++ {
				issued.Add(1)
				class, err := rt.Classify(xs[p])
				switch {
				case err == nil:
					if class != want[p] {
						t.Errorf("producer %d: class %d, want %d", p, class, want[p])
						return
					}
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				default:
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	wg.Wait()

	st := rt.Stats()
	if st.Accepted != st.Completed {
		t.Fatalf("accepted %d != completed %d after all producers returned", st.Accepted, st.Completed)
	}
	if st.Accepted+st.Dropped != issued.Load() {
		t.Fatalf("accepted %d + dropped %d != issued %d", st.Accepted, st.Dropped, issued.Load())
	}
	if st.Dropped != shed.Load() {
		t.Fatalf("stats dropped %d vs callers shed %d", st.Dropped, shed.Load())
	}
	ringInvariants(t, rt)
}

// TestRingWraparoundSingleSlot: a capacity-1 ring recycles the same slot
// for every request — the tightest possible exercise of the sequence
// gate. Sequential and concurrent use must both deliver exact results.
func TestRingWraparoundSingleSlot(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{Shards: 1, QueueDepth: 1})
	for i := 0; i < 200; i++ {
		wantClass := i % 2
		x := []float64{float64(wantClass)*2 - 1, 0}
		if c, err := rt.Classify(x); err != nil || c != wantClass {
			t.Fatalf("iter %d: class=%d err=%v", i, c, err)
		}
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			x := []float64{float64(p%2)*2 - 1, 0}
			for n := 0; n < 200; n++ {
				c, err := rt.Classify(x)
				if err == nil && c != p%2 {
					t.Errorf("producer %d: class %d", p, c)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	if st := rt.Stats(); st.Accepted != st.Completed {
		t.Fatalf("accepted %d != completed %d", st.Accepted, st.Completed)
	}
	ringInvariants(t, rt)
}

// TestRingClassifyBatchPipelines: a batch far larger than the ring must
// pipeline through it (the enqueue loop helps harvest instead of
// shedding its own traffic) — with no competing load, nothing drops.
func TestRingClassifyBatchPipelines(t *testing.T) {
	m := dnnModel()
	rt := mustRuntime(t, m, ServingConfig{Shards: 2, BatchSize: 8, QueueDepth: 8})
	rng := rand.New(rand.NewSource(13))
	const n = 512 // 64× the total ring capacity
	xs := make([][]float64, n)
	want := make([]int, n)
	for i := range xs {
		xs[i] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		y, err := m.InferQ(xs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = y
	}
	classes, dropped, err := rt.ClassifyBatch(xs)
	if err != nil || dropped != 0 {
		t.Fatalf("err=%v dropped=%d — a lone batch must pipeline, not shed", err, dropped)
	}
	for i, c := range classes {
		if c != want[i] {
			t.Fatalf("sample %d: class %d, want %d", i, c, want[i])
		}
	}
	ringInvariants(t, rt)
}

// TestRingCloseUnderFire: Close racing a storm of producers must
// neither lose an accepted request nor deadlock — every call resolves
// to a class, ErrOverloaded, or ErrClosed, and the drain ledger
// balances.
func TestRingCloseUnderFire(t *testing.T) {
	rt, err := New(stepModel(), ServingConfig{Shards: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			x := []float64{float64(p%2)*2 - 1, 0}
			for n := 0; n < 300; n++ {
				c, err := rt.Classify(x)
				switch {
				case err == nil:
					if c != p%2 {
						t.Errorf("producer %d: class %d", p, c)
						return
					}
				case errors.Is(err, ErrOverloaded), errors.Is(err, ErrClosed):
				default:
					t.Errorf("producer %d: %v", p, err)
					return
				}
			}
		}(p)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	st := rt.Stats()
	if st.Accepted != st.Completed {
		t.Fatalf("accepted %d != completed %d after close", st.Accepted, st.Completed)
	}
	ringInvariants(t, rt)
}
