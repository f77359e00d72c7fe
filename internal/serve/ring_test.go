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
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ir"
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
	if acc := rt.raw().Accepted; tickets > acc {
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

// classifier is the traffic surface mixedLoad drives: a Runtime or an
// Endpoint.
type classifier interface {
	Classify(x []float64) (int, error)
	ClassifyBatch(xs [][]float64) ([]int, int, error)
}

// mixedLoad runs goroutines of mixed traffic against c — single
// vectors, batches of one span and of several — plus one row of the
// wrong width, retried until a ring admits it. Every delivered class
// must equal InferQ. It returns the vectors the callers saw admitted
// and shed, and how many admitted vectors failed inference.
func mixedLoad(t *testing.T, c classifier, m *ir.Model, seed int64) (admitted, shed, failed uint64) {
	t.Helper()
	const goroutines, iters = 8, 60
	var a, s, f atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g == 0 {
				for {
					_, err := c.Classify([]float64{1})
					if errors.Is(err, ErrOverloaded) {
						s.Add(1)
						continue
					}
					if err == nil {
						t.Error("a row of the wrong width classified")
					}
					a.Add(1)
					f.Add(1)
					break
				}
			}
			rng := rand.New(rand.NewSource(seed*goroutines + int64(g)))
			for i := 0; i < iters; i++ {
				if i%3 == 0 {
					xs := randRows(rng, m, 1)
					class, err := c.Classify(xs[0])
					switch {
					case err == nil:
						if want := inferAll(m, xs)[0]; class != want {
							t.Errorf("goroutine %d: class %d, want %d", g, class, want)
						}
						a.Add(1)
					case errors.Is(err, ErrOverloaded):
						s.Add(1)
					default:
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					continue
				}
				// A ring holds 16 vectors: up to 16 is one span, more is
				// several.
				n := 1 + rng.Intn(16)
				if i%3 == 2 {
					n += 16 + rng.Intn(32)
				}
				xs := randRows(rng, m, n)
				classes, dropped, err := c.ClassifyBatch(xs)
				if err != nil {
					t.Errorf("goroutine %d: batch of %d: %v", g, n, err)
					return
				}
				for k, want := range inferAll(m, xs) {
					if classes[k] != -1 && classes[k] != want {
						t.Errorf("goroutine %d: row %d of %d: class %d, want %d", g, k, n, classes[k], want)
					}
				}
				a.Add(uint64(n - dropped))
				s.Add(uint64(dropped))
			}
		}(g)
	}
	wg.Wait()
	return a.Load(), s.Load(), f.Load()
}

// statsExact checks a drained deployment's counters against what its
// callers saw.
func statsExact(t *testing.T, what string, st Stats, admitted, shed, failed uint64) {
	t.Helper()
	if st.Accepted != st.Completed || st.Accepted != admitted {
		t.Fatalf("%s: accepted %d, completed %d, callers saw %d admitted", what, st.Accepted, st.Completed, admitted)
	}
	if st.Dropped != shed {
		t.Fatalf("%s: dropped %d, callers saw %d shed", what, st.Dropped, shed)
	}
	if st.Errors != failed {
		t.Fatalf("%s: errors %d, callers saw %d failed", what, st.Errors, failed)
	}
	var classified uint64
	for _, n := range st.PerClass {
		classified += n
	}
	if classified != st.Completed-st.Errors {
		t.Fatalf("%s: per-class sum %d, want completed %d - errors %d", what, classified, st.Completed, st.Errors)
	}
}

// TestRingShardStatsExact: the counters live per shard and are summed
// when read, so the sum must be exact. Mixed traffic on 4 small rings —
// singles, one-span and multi-span batches, a row of the wrong width,
// load enough to shed — then Close: accepted, completed, dropped, errors
// and the per-class tally must match what the callers saw, and an
// endpoint's RawStats must be the merge of its runtimes'.
func TestRingShardStatsExact(t *testing.T) {
	m := dnnModel()
	cfg := ServingConfig{Shards: 4, BatchSize: 8, QueueDepth: 64}
	// Each span sleeps under its harvest lock, so rings back up and shed.
	rt := mustRuntimeHook(t, m, cfg, func() { time.Sleep(20 * time.Microsecond) })
	var admitted, shed, failed uint64
	for round := int64(0); round < 20 && shed == 0; round++ {
		a, s, f := mixedLoad(t, rt, m, round)
		admitted, shed, failed = admitted+a, shed+s, failed+f
	}
	if shed == 0 {
		t.Fatal("nothing shed: the load never filled a ring")
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	statsExact(t, "runtime", rt.Stats(), admitted, shed, failed)
	ringInvariants(t, rt)

	ep, err := NewEndpoint("ep", m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ep.Close() })
	if _, err := ep.Rollout(m, RolloutConfig{CanaryPercent: 50}); err != nil {
		t.Fatal(err)
	}
	admitted, shed, failed = mixedLoad(t, ep, m, 100)
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	var merged RawStats
	for _, rev := range ep.revs {
		merged.Merge(rev.rt.Load().raw())
	}
	got := ep.RawStats()
	got.UptimeNS, merged.UptimeNS = 0, 0
	if !reflect.DeepEqual(got, merged) {
		t.Fatalf("endpoint RawStats %+v, merge of its runtimes %+v", got, merged)
	}
	statsExact(t, "endpoint", got.Stats(), admitted, shed, failed)
}

// TestRingClaimOrder: a lone span claims its home shard's harvest lock,
// else the next free one round the shards, else none; new requests are
// dealt homes round-robin; and a lone Classify on an idle runtime is
// accepted on its request's home.
func TestRingClaimOrder(t *testing.T) {
	idle := func(rt *Runtime) {
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
	cfg := ServingConfig{Shards: 4}
	rt := mustRuntime(t, stepModel(), cfg)
	idle(rt)
	hold := func(held ...int) {
		for i, sh := range rt.rings {
			sh.busy.Store(0)
			for _, h := range held {
				if h == i {
					sh.busy.Store(1)
				}
			}
		}
	}
	for _, c := range []struct {
		home   int
		held   []int
		at     int
		gotten bool
	}{
		{home: 1, at: 1, gotten: true},
		{home: 1, held: []int{1}, at: 2, gotten: true},
		{home: 3, held: []int{3}, at: 0, gotten: true},
		{home: 1, held: []int{1, 2, 3}, at: 0, gotten: true},
		{home: 2, held: []int{0, 1, 2, 3}, at: 2, gotten: false},
	} {
		hold(c.held...)
		if at, ok := rt.claim(c.home); at != c.at || ok != c.gotten {
			t.Errorf("claim(%d) with %v held = (%d, %v), want (%d, %v)", c.home, c.held, at, ok, c.at, c.gotten)
		}
	}
	hold()
	for i := 0; i < 8; i++ {
		if h := rt.reqPool.New().(*request).home; h != i%4 {
			t.Fatalf("request %d minted with home %d, want %d", i, h, i%4)
		}
	}

	for home := range cfg.Shards {
		rt := mustRuntime(t, stepModel(), cfg)
		idle(rt)
		rt.rr.Store(uint64(home)) // the first request minted takes this home
		if c, err := rt.Classify([]float64{1, 0}); err != nil || c != 1 {
			t.Fatalf("classify: %d %v", c, err)
		}
		for i, sh := range rt.rings {
			want := uint64(0)
			if i == home {
				want = 1
			}
			if got := sh.stats.accepted.Load(); got != want {
				t.Fatalf("home %d: shard %d accepted %d, want %d", home, i, got, want)
			}
		}
	}
}
