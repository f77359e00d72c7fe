package serve

// The owner path: a lone span whose caller wins a shard's harvest lock
// is classified in place — no ticket, slot, bitmap bit or sweep — and the
// caller then drains whatever neighbors published to that shard. These
// tests pin its admission and accounting against the ring's and run
// under -race -count=10 in CI.

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkedWorkers waits until every fallback worker of rt is parked, so an
// uncontended caller wins its claim.
func parkedWorkers(t *testing.T, rt *Runtime) {
	t.Helper()
	waitFor(t, "every fallback worker parked", func() bool {
		for _, sh := range rt.rings {
			if sh.parked.Load() == 0 {
				return false
			}
		}
		return true
	})
}

// latencySamples is how many spans the latency histogram holds.
func latencySamples(rt *Runtime) uint64 {
	var n uint64
	for _, c := range rt.raw().Latency {
		n += c
	}
	return n
}

// TestRingOwnerPathSkipsRing: uncontended Classify calls (greedy) and
// one-span ClassifyBatch calls (under every flush policy) never touch
// the ring: no ticket, an empty bitmap, one flush per call, every 8th
// call latency-sampled, and the drain ledger balanced.
func TestRingOwnerPathSkipsRing(t *testing.T) {
	const n = 101
	xs := [][]float64{{1, 0}, {-1, 0}, {1, 0}}
	check := func(what string, rt *Runtime, vectors uint64) {
		t.Helper()
		for i, sh := range rt.rings {
			if got := sh.tickets.Load(); got != 0 {
				t.Fatalf("%s: shard %d issued %d tickets", what, i, got)
			}
		}
		st := rt.Stats()
		if st.Accepted != vectors || st.Completed != vectors || st.Batches != n {
			t.Fatalf("%s: want %d vectors in %d flushes: %+v", what, vectors, n, st)
		}
		if got, want := latencySamples(rt), uint64((n+latSampleEvery-1)/latSampleEvery); got != want {
			t.Fatalf("%s: %d latency samples, want %d", what, got, want)
		}
		ringInvariants(t, rt)
	}

	rt := mustRuntime(t, stepModel(), ServingConfig{Shards: 1})
	parkedWorkers(t, rt)
	for i := 0; i < n; i++ {
		if c, err := rt.Classify(xs[i%2]); err != nil || c != 1-i%2 {
			t.Fatalf("classify %d: %d %v", i, c, err)
		}
	}
	check("greedy Classify", rt, n)

	for _, cfg := range []ServingConfig{
		{Shards: 1},
		{Shards: 1, MaxDelayNS: delayNS(5 * time.Second)},
		{Shards: 1, AdaptiveFlush: true},
	} {
		rt := mustRuntime(t, stepModel(), cfg)
		parkedWorkers(t, rt)
		start := time.Now()
		for i := 0; i < n; i++ {
			classes, dropped, err := rt.ClassifyBatch(xs)
			if err != nil || dropped != 0 || classes[0] != 1 || classes[1] != 0 || classes[2] != 1 {
				t.Fatalf("%s batch %d: %v %d %v", rt.flush, i, classes, dropped, err)
			}
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s: one-span batches took %v — were they held?", rt.flush, d)
		}
		check("one-span ClassifyBatch under "+rt.flush.String(), rt, n*uint64(len(xs)))
	}

	// A hold policy keeps a lone Classify on the ring, to wait for company.
	rt = mustRuntime(t, stepModel(), ServingConfig{Shards: 1, MaxDelayNS: delayNS(time.Microsecond)})
	parkedWorkers(t, rt)
	if c, err := rt.Classify(xs[0]); err != nil || c != 1 {
		t.Fatalf("held classify: %d %v", c, err)
	}
	if got := rt.rings[0].tickets.Load(); got != 1 {
		t.Fatalf("a held Classify issued %d tickets, want 1", got)
	}
	ringInvariants(t, rt)
}

// TestRingOwnerSweepsNeighbors: a span published to the owned shard
// while its owner is held inside the classify is delivered by that owner
// before it releases the lock — not left for the fallback worker.
func TestRingOwnerSweepsNeighbors(t *testing.T) {
	release := make(chan struct{})
	var calls atomic.Int32
	rt := mustRuntimeHook(t, stepModel(), ServingConfig{Shards: 1}, func() {
		switch calls.Add(1) {
		case 1:
			<-release // the owner, inside its own classify
		case 2:
			// The neighbor's span. Slow enough that, had the owner
			// released the lock with it still published, the owner's
			// return would beat its delivery.
			time.Sleep(20 * time.Millisecond)
		}
	})
	parkedWorkers(t, rt)
	sh := rt.rings[0]

	owner := make(chan uint64, 1)
	go func() {
		if c, err := rt.Classify([]float64{1, 0}); err != nil || c != 1 {
			t.Errorf("owner: %d %v", c, err)
		}
		owner <- sh.stats.completed.Load()
	}()
	waitFor(t, "owner inside its classify", func() bool { return calls.Load() == 1 })
	neighbor := make(chan error, 1)
	go func() {
		c, err := rt.Classify([]float64{-1, 0})
		if err == nil && c != 0 {
			err = errors.New("neighbor misclassified")
		}
		neighbor <- err
	}()
	waitFor(t, "neighbor published to the owned shard", sh.hasReady)
	close(release)

	if done := <-owner; done != 2 {
		t.Fatalf("owner returned with %d spans completed: it released the lock before sweeping its neighbor", done)
	}
	if err := <-neighbor; err != nil {
		t.Fatal(err)
	}
	if sh.tickets.Load() != 1 || sh.owned != 1 {
		t.Fatalf("tickets %d, owned %d: want the neighbor on the ring and the owner in place", sh.tickets.Load(), sh.owned)
	}
	ringInvariants(t, rt)
}

// TestRingOwnerRefusalReturnsCredits: an owned span shed past the
// ring's bound, or refused once closing, gives back every credit it
// took, releases the lock, and counts as the ring path's refusals do —
// a shed is a drop, a refusal after Close is only the call's error.
func TestRingOwnerRefusalReturnsCredits(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{Shards: 1, QueueDepth: 8})
	parkedWorkers(t, rt)
	sh := rt.rings[0]
	xs := [][]float64{{1, 0}, {1, 0}, {-1, 0}}

	// Spans published by others hold all but two credits.
	held := int64(sh.cap) - 2
	sh.credits.Store(held)
	if _, err := rt.Classify([]float64{1, 0}); err != nil {
		t.Fatalf("one vector fits the two free credits: %v", err)
	}
	classes, dropped, err := rt.ClassifyBatch(xs)
	if err != nil || dropped != len(xs) || classes[0] != -1 || classes[2] != -1 {
		t.Fatalf("three vectors past the bound: %v %d %v", classes, dropped, err)
	}
	sh.credits.Store(int64(sh.cap))
	if _, err := rt.Classify([]float64{1, 0}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("full ring: %v, want ErrOverloaded", err)
	}
	if got := sh.credits.Load(); got != int64(sh.cap) || sh.busy.Load() != 0 {
		t.Fatalf("after sheds: %d credits held, busy %d", got, sh.busy.Load())
	}
	sh.credits.Store(0)
	if st := rt.Stats(); st.Accepted != 1 || st.Completed != 1 || st.Dropped != uint64(len(xs))+1 {
		t.Fatalf("sheds are drops: %+v", st)
	}

	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Classify([]float64{1, 0}); !errors.Is(err, ErrClosed) {
		t.Fatalf("after Close: %v, want ErrClosed", err)
	}
	if _, _, err := rt.ClassifyBatch(xs); !errors.Is(err, ErrClosed) {
		t.Fatalf("batch after Close: %v, want ErrClosed", err)
	}
	if st := rt.Stats(); sh.credits.Load() != 0 || sh.busy.Load() != 0 || st.Accepted != 1 || st.Dropped != uint64(len(xs))+1 {
		t.Fatalf("after refusals: %d credits, busy %d, %+v", sh.credits.Load(), sh.busy.Load(), st)
	}
	ringInvariants(t, rt)
}

// TestRingOwnerCloseRace: Close lands while callers classify on the
// owner path and, when they collide, on the ring. Every call returns
// its class or a refusal, and the counters hold exactly what the callers
// saw delivered, class by class — nothing lost, nothing counted twice.
func TestRingOwnerCloseRace(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{Shards: 2, QueueDepth: 16})
	const callers, rounds = 4, 400
	var delivered [2]atomic.Uint64
	var shed atomic.Uint64
	var wg sync.WaitGroup
	closing := make(chan struct{})
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if g == 0 && i == rounds/4 {
					close(closing)
				}
				want := (g + i) % 2
				x := []float64{float64(want)*2 - 1, 0}
				if g%2 == 0 {
					c, err := rt.Classify(x)
					switch {
					case errors.Is(err, ErrClosed):
						return
					case errors.Is(err, ErrOverloaded):
						shed.Add(1)
					case err != nil || c != want:
						t.Errorf("caller %d round %d: %d %v, want %d", g, i, c, err, want)
						return
					default:
						delivered[c].Add(1)
					}
					continue
				}
				classes, dropped, err := rt.ClassifyBatch([][]float64{x, x})
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("caller %d round %d: %v", g, i, err)
					return
				}
				shed.Add(uint64(dropped))
				for _, c := range classes {
					switch {
					case c == -1:
					case c != want:
						t.Errorf("caller %d round %d: class %d, want %d", g, i, c, want)
						return
					default:
						delivered[c].Add(1)
					}
				}
			}
		}(g)
	}
	<-closing
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	st := rt.Stats()
	got := delivered[0].Load() + delivered[1].Load()
	if st.Accepted != st.Completed || st.Completed != got || st.Dropped != shed.Load() {
		t.Fatalf("accepted %d, completed %d, dropped %d; callers saw %d delivered, %d shed", st.Accepted, st.Completed, st.Dropped, got, shed.Load())
	}
	if st.PerClass[0] != delivered[0].Load() || st.PerClass[1] != delivered[1].Load() {
		t.Fatalf("per-class %v, callers saw [%d %d]", st.PerClass, delivered[0].Load(), delivered[1].Load())
	}
	ringInvariants(t, rt)
}
