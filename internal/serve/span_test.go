package serve

// The span contract: ClassifyBatch publishes runs of the caller's own
// rows and result slice into the rings and blocks until every one is
// delivered. These tests pin what follows from that — the caller's
// memory is its own again the moment the call returns, a span is shed or
// classified whole, QueueDepth bounds vectors, the hold policies never
// delay a span — and run under -race -count=10 in CI.

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/ir"
)

// randRows draws n vectors for m into one flat buffer, the way httpapi
// hands a batch over.
func randRows(rng *rand.Rand, m *ir.Model, n int) [][]float64 {
	flat := make([]float64, n*m.Inputs)
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = flat[i*m.Inputs : (i+1)*m.Inputs]
		for j := range xs[i] {
			xs[i][j] = rng.NormFloat64() * 2
		}
	}
	return xs
}

// inferAll is the reference: InferQ of every (well-formed) row.
func inferAll(m *ir.Model, xs [][]float64) []int {
	want := make([]int, len(xs))
	for i, x := range xs {
		want[i], _ = m.InferQ(x)
	}
	return want
}

// TestSpanContractUnderFire: batch callers that scribble over their rows
// the moment ClassifyBatch returns, single-vector traffic, a live shadow
// and a Close mid-flight, all at once. Every delivered class must equal
// InferQ of the row as it was when submitted — a harvester reading a row
// after its call returned would classify the scribble (and race) — in
// batch order, a batch's vectors are delivered or shed in whole spans,
// and the drain ledger balances.
func TestSpanContractUnderFire(t *testing.T) {
	m := dnnModel()
	ep, err := NewEndpoint("fire", m, ServingConfig{Shards: 2, BatchSize: 8, QueueDepth: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Rollout(dnnModel(), RolloutConfig{Shadow: true}); err != nil {
		t.Fatal(err)
	}
	stable := ep.table.Load().stableRT

	const batchers, singles, rounds = 4, 3, 60
	var wg sync.WaitGroup
	closeAt := make(chan struct{})
	var closeOnce sync.Once
	for b := 0; b < batchers; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + b)))
			for round := 0; round < rounds; round++ {
				if b == 0 && round == rounds/2 {
					closeOnce.Do(func() { close(closeAt) })
				}
				// Sizes on both sides of a tile, of minSpan, and of the
				// 32-vector rings (pipelining).
				xs := randRows(rng, m, 1+rng.Intn(3*minSpan))
				want := inferAll(m, xs)
				classes, dropped, err := ep.ClassifyBatch(xs)
				for i := range xs {
					for j := range xs[i] {
						xs[i][j] = 1e6 // ours again: any later read is a bug
					}
				}
				if err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("batcher %d round %d: %v", b, round, err)
					return
				}
				if len(classes) != len(want) {
					t.Errorf("batcher %d round %d: %d classes for %d vectors", b, round, len(classes), len(want))
					return
				}
				shed := 0
				for i, c := range classes {
					if c == -1 {
						shed++
					} else if c != want[i] {
						t.Errorf("batcher %d round %d vector %d: class %d, InferQ %d", b, round, i, c, want[i])
						return
					}
				}
				if errors.Is(err, ErrClosed) {
					return
				}
				if shed != dropped {
					t.Errorf("batcher %d round %d: %d vectors at -1, dropped=%d", b, round, shed, dropped)
					return
				}
			}
		}(b)
	}
	for s := 0; s < singles; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + s)))
			x := make([]float64, m.Inputs)
			for round := 0; round < rounds*8; round++ {
				for j := range x {
					x[j] = rng.NormFloat64() * 2
				}
				want, _ := m.InferQ(x)
				c, err := ep.Classify(x)
				switch {
				case errors.Is(err, ErrClosed):
					return
				case errors.Is(err, ErrOverloaded):
				case err != nil || c != want:
					t.Errorf("single %d round %d: class %d err %v, InferQ %d", s, round, c, err, want)
					return
				}
			}
		}(s)
	}
	<-closeAt
	if err := ep.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	st := stable.Stats()
	if st.Accepted != st.Completed || st.Errors != 0 {
		t.Fatalf("drain ledger: %+v", st)
	}
	var perClass uint64
	for _, n := range st.PerClass {
		perClass += n
	}
	if perClass != st.Completed {
		t.Fatalf("per-class counts sum to %d, completed %d", perClass, st.Completed)
	}
	ringInvariants(t, stable)
	if d := ep.Stats().Shadow; d == nil || d.Disagreed != 0 {
		t.Fatalf("a shadow of the same model disagreed (it read rows its caller had taken back?): %+v", d)
	}
}

// TestSpanLoneBatchExceedsQueueDepth: QueueDepth bounds vectors in the
// rings, not the size of a batch — a lone batch many times larger is cut
// to spans a ring holds and pipelines through with nothing dropped.
func TestSpanLoneBatchExceedsQueueDepth(t *testing.T) {
	m := dnnModel()
	rt := mustRuntime(t, m, ServingConfig{Shards: 2, QueueDepth: 64})
	xs := randRows(rand.New(rand.NewSource(3)), m, 1000)
	want := inferAll(m, xs)
	classes, dropped, err := rt.ClassifyBatch(xs)
	if err != nil || dropped != 0 {
		t.Fatalf("err=%v dropped=%d", err, dropped)
	}
	for i, c := range classes {
		if c != want[i] {
			t.Fatalf("vector %d: class %d, InferQ %d", i, c, want[i])
		}
	}
	st := rt.Stats()
	if st.Accepted != 1000 || st.Completed != 1000 || st.Dropped != 0 {
		t.Fatalf("counters are in vectors: %+v", st)
	}
	if st.MeanBatch < float64(ir.Tile) {
		t.Fatalf("mean batch %.1f: sweeps must count vectors, not spans", st.MeanBatch)
	}
	ringInvariants(t, rt)
}

// TestSpanShedsWhole: with the rings held full by competing traffic a
// batch has nothing of its own in flight to wait for, so its spans are
// shed — each one whole, as -1s counted in dropped — and the vectors
// admitted before are still delivered.
func TestSpanShedsWhole(t *testing.T) {
	release := make(chan struct{})
	var gate sync.Once
	rt := mustRuntimeHook(t, stepModel(), ServingConfig{
		Shards: 1, QueueDepth: 16,
	}, func() { <-release })
	defer gate.Do(func() { close(release) })

	// 1 vector detached under the blocked harvester + 16 holding every
	// credit of the ring.
	const competing = 17
	errs := make(chan error, competing)
	for i := 0; i < competing; i++ {
		go func() {
			_, err := rt.Classify([]float64{1, 0})
			errs <- err
		}()
		waitFor(t, "competing vector admitted", func() bool { return rt.Stats().Accepted == uint64(i+1) })
	}

	xs := make([][]float64, 40) // spans of 16, 16 and 8 on the 16-slot ring
	for i := range xs {
		xs[i] = []float64{-1, 0}
	}
	classes, dropped, err := rt.ClassifyBatch(xs)
	if err != nil || dropped != len(xs) {
		t.Fatalf("err=%v dropped=%d, want every span shed", err, dropped)
	}
	for i, c := range classes {
		if c != -1 {
			t.Fatalf("vector %d: class %d in a shed span", i, c)
		}
	}
	if st := rt.Stats(); st.Dropped != uint64(len(xs)) || st.Accepted != competing {
		t.Fatalf("dropped counts vectors: %+v", st)
	}
	gate.Do(func() { close(release) })
	for i := 0; i < competing; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("competing vector lost: %v", err)
		}
	}
	// With the ring free again the same batch is admitted in full.
	classes, dropped, err = rt.ClassifyBatch(xs)
	if err != nil || dropped != 0 || classes[0] != 0 || classes[len(xs)-1] != 0 {
		t.Fatalf("after release: err=%v dropped=%d classes=%v", err, dropped, classes)
	}
	ringInvariants(t, rt)
}

// TestSpanNeverHeld: under a fixed-deadline flush policy a harvester
// holds a lone vector for the delay hoping for company. A ClassifyBatch
// span is its own company: it must neither wait out a hold itself nor
// sit behind a harvester that is holding.
func TestSpanNeverHeld(t *testing.T) {
	const hold = 5 * time.Second
	rt := mustRuntime(t, stepModel(), ServingConfig{
		Shards: 1, BatchSize: 64, MaxDelayNS: delayNS(hold),
	})
	xs := [][]float64{{1, 0}, {-1, 0}, {1, 0}}

	start := time.Now()
	if classes, dropped, err := rt.ClassifyBatch(xs); err != nil || dropped != 0 || classes[0] != 1 || classes[1] != 0 {
		t.Fatalf("classes=%v dropped=%d err=%v", classes, dropped, err)
	}
	if d := time.Since(start); d > hold/2 {
		t.Fatalf("a lone span waited %v — it was held", d)
	}

	// A single vector's own caller is now holding the shard for company.
	single := make(chan error, 1)
	go func() {
		_, err := rt.Classify([]float64{1, 0})
		single <- err
	}()
	waitFor(t, "single admitted and held", func() bool {
		return rt.Stats().Accepted == 4 && rt.rings[0].busy.Load() == 1
	})
	start = time.Now()
	if _, dropped, err := rt.ClassifyBatch(xs); err != nil || dropped != 0 {
		t.Fatalf("dropped=%d err=%v", dropped, err)
	}
	if err := <-single; err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > hold/2 {
		t.Fatalf("a span behind a holding harvester waited %v", d)
	}
	if st := rt.Stats(); st.DeadlineFlushes != 0 {
		t.Fatalf("nothing here ran into its deadline: %+v", st)
	}
}

// TestSpanStatsCountVectors: one span adds its vectors to accepted,
// completed, the per-class counts and the sweep size, and its malformed
// rows — and only those — to errors.
func TestSpanStatsCountVectors(t *testing.T) {
	rt := mustRuntime(t, stepModel(), ServingConfig{Shards: 1, BatchSize: 8})
	xs := make([][]float64, 20)
	for i := range xs {
		xs[i] = []float64{float64(i%4) - 0.5, 0} // classes 0,1,1,1,...
	}
	xs[5], xs[19] = []float64{1}, []float64{1, 2, 3}
	classes, dropped, err := rt.ClassifyBatch(xs)
	if err == nil || dropped != 0 {
		t.Fatalf("err=%v dropped=%d: malformed rows are errors, not drops", err, dropped)
	}
	for i, c := range classes {
		want := 1
		switch {
		case i == 5 || i == 19:
			want = -1
		case i%4 == 0:
			want = 0
		}
		if c != want {
			t.Fatalf("vector %d: class %d, want %d", i, c, want)
		}
	}
	st := rt.Stats()
	if st.Accepted != 20 || st.Completed != 20 || st.Errors != 2 {
		t.Fatalf("counters: %+v", st)
	}
	if st.PerClass[0] != 5 || st.PerClass[1] != 13 {
		t.Fatalf("per-class: %v", st.PerClass)
	}
	if st.Batches != 1 || st.MeanBatch != 20 || st.FullFlushes != 1 {
		t.Fatalf("one sweep of 20 vectors, full at BatchSize 8: %+v", st)
	}
	if st.P99 == 0 {
		t.Fatalf("ticket 0 is latency-sampled: %+v", st)
	}
}

// TestEndpointShadowMirrorsBatchWhole: a ClassifyBatch on a shadowed
// endpoint is mirrored as one unit — every vector compared, none shed,
// however far the batch exceeds mirrorDepth.
func TestEndpointShadowMirrorsBatchWhole(t *testing.T) {
	ep := mustEndpoint(t, 0, ServingConfig{})
	if _, err := ep.Rollout(constModel(2), RolloutConfig{Shadow: true}); err != nil {
		t.Fatal(err)
	}
	const n = 256 // 4x mirrorDepth
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = []float64{1, 1}
	}
	xs[7] = []float64{1} // fails on the primary: not mirrored
	classes, dropped, err := ep.ClassifyBatch(xs)
	if err == nil || dropped != 0 || classes[7] != -1 || classes[0] != 0 {
		t.Fatalf("classes[0]=%d classes[7]=%d dropped=%d err=%v", classes[0], classes[7], dropped, err)
	}
	for i := range classes {
		classes[i] = 3 // the result slice is the caller's too
	}
	waitFor(t, "mirror drained", func() bool {
		d := ep.Stats().Shadow
		return d != nil && d.Mirrored+d.Shed == n-1
	})
	d := ep.Stats().Shadow
	if d.Mirrored != n-1 || d.Shed != 0 || d.Errors != 0 {
		t.Fatalf("a %d-vector batch must be compared %d times with 0 shed: %+v", n, n-1, d)
	}
	if d.Disagreed != n-1 || d.Pairs[0][2] != n-1 {
		t.Fatalf("pair (0,2) must carry every comparison: %+v", d)
	}
}
