// Package parallel provides the shared, bounded worker pool behind the
// repo's hot paths: the blocked tensor kernels, random-forest tree fits,
// BO acquisition scoring, and the per-family searches in internal/core all
// draw helpers from the same token pool. The pool holds GOMAXPROCS-1
// helper tokens (the caller is always the GOMAXPROCS-th worker), and every
// acquisition is non-blocking: when the tokens are spent — e.g. a kernel
// running inside an already-parallel family search — the work simply runs
// serially on the caller. That makes nesting safe by construction (no
// unbounded goroutine trees, no oversubscription, no deadlock) at the cost
// of occasionally under-splitting. Run repairs that where it is cheap to:
// before each task it takes, a worker recruits a helper if a token is
// free and more tasks are unstarted than there are workers, so a Run that
// began on a drained pool (a BO group started while other families held
// the cores) picks the cores up as they come back. Tokens are held only
// while there is work for them: For returns its helpers' when the loop
// ends, and Run returns one as each worker runs out of tasks, so when one
// long task outlives its siblings (the DNN family search does) the
// kernels nested inside it find the freed cores.
//
// Determinism contract: For and Run only guarantee that every index/task
// executes exactly once; the partition into goroutines depends on how many
// tokens are free. Callers therefore must keep each output element's
// computation independent of the chunking — write to disjoint slots and
// keep any floating-point accumulation order fixed per element, never
// accumulated across chunks. All in-repo callers follow this rule, which
// is what keeps fixed-seed searches bit-identical at any GOMAXPROCS.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

var (
	mu     sync.Mutex
	tokens chan struct{}
)

func init() {
	resize(runtime.GOMAXPROCS(0))
}

func resize(workers int) {
	if workers < 1 {
		workers = 1
	}
	t := make(chan struct{}, workers-1)
	for i := 0; i < workers-1; i++ {
		t <- struct{}{}
	}
	mu.Lock()
	tokens = t
	mu.Unlock()
}

func pool() chan struct{} {
	mu.Lock()
	t := tokens
	mu.Unlock()
	return t
}

// Workers returns the pool's total concurrency (helpers + the caller).
func Workers() int { return cap(pool()) + 1 }

// SetWorkers resizes the pool to the given total concurrency. It is meant
// for startup configuration and for tests that need to force the parallel
// paths on (or off) regardless of the machine; it must not race with
// in-flight For/Run calls. SetWorkers(1) disables helper goroutines
// entirely.
func SetWorkers(n int) { resize(n) }

// tryAcquire grabs up to want helper tokens from t without blocking.
func tryAcquire(t chan struct{}, want int) int {
	got := 0
	for got < want {
		select {
		case <-t:
			got++
		default:
			return got
		}
	}
	return got
}

func release(t chan struct{}, n int) {
	for i := 0; i < n; i++ {
		t <- struct{}{}
	}
}

// For executes fn over contiguous index ranges covering [0, n). grain is
// the minimum number of indices worth a chunk: work smaller than two
// grains, or arriving when the pool is drained, runs as a single serial
// fn(0, n) call on the caller — tiny data-plane models never pay goroutine
// dispatch. fn must treat each index independently (see the package
// determinism contract).
func For(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	t := pool()
	maxChunks := n / grain
	if maxChunks < 2 || cap(t) == 0 {
		fn(0, n)
		return
	}
	want := maxChunks - 1
	if want > cap(t) {
		want = cap(t)
	}
	helpers := tryAcquire(t, want)
	if helpers == 0 {
		fn(0, n)
		return
	}
	chunks := helpers + 1
	var wg sync.WaitGroup
	wg.Add(helpers)
	for c := 1; c < chunks; c++ {
		lo, hi := chunkBounds(n, chunks, c)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	lo, hi := chunkBounds(n, chunks, 0)
	fn(lo, hi)
	wg.Wait()
	release(t, helpers)
}

// chunkBounds splits [0, n) into chunks near-equal ranges and returns the
// c-th one.
func chunkBounds(n, chunks, c int) (lo, hi int) {
	base := n / chunks
	rem := n % chunks
	lo = c*base + min(c, rem)
	hi = lo + base
	if c < rem {
		hi++
	}
	return lo, hi
}

// Run executes every task exactly once, using the caller plus however many
// helper tokens are free. Tasks beyond the worker count are pulled off a
// shared atomic cursor as workers finish, so long and short tasks pack
// without idle helpers. Before each task a worker recruits a helper if a
// token has come free and more tasks are unstarted than there are
// workers, so a Run that began on a drained pool picks up the cores other
// work gives back; and a worker that finds the cursor exhausted returns
// its token while the remaining tasks are still running. With an empty
// pool it degrades to a serial loop.
func Run(tasks ...func()) {
	RunCtx(context.Background(), tasks...)
}

// RunCtx is Run with cooperative cancellation: once ctx is done, workers
// stop pulling tasks off the cursor and RunCtx returns ctx.Err(). Tasks
// already started always run to completion (they are expected to observe
// ctx themselves if they are long); tasks never started are simply
// skipped, so the caller must treat a non-nil return as "results
// incomplete". With an undone ctx the task schedule is identical to Run.
func RunCtx(ctx context.Context, tasks ...func()) error {
	n := int64(len(tasks))
	if n == 0 {
		return ctx.Err()
	}
	t := pool()
	done := ctx.Done()
	if n == 1 || cap(t) == 0 {
		for _, task := range tasks {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			task()
		}
		return ctx.Err()
	}
	var next atomic.Int64
	// Helper tokens stand for goroutines running beyond one: at every
	// moment the tokens this Run holds number its workers minus one. Each
	// worker that runs out of tasks while others are still busy hands one
	// token back at once instead of sitting on it until the slowest task
	// ends, so that task's own nested For/Run calls can use the idle core.
	// The last worker to finish returns nothing: it was the "one".
	var running atomic.Int64
	running.Store(1)
	var wg sync.WaitGroup
	var work func()
	// recruit starts helpers while a token is free and more tasks are
	// unstarted than there are workers to start them.
	recruit := func() {
		for n-next.Load() > running.Load() && tryAcquire(t, 1) == 1 {
			running.Add(1)
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
	}
	work = func() {
		defer func() {
			if running.Add(-1) > 0 {
				release(t, 1)
			}
		}()
		for {
			select {
			case <-done:
				return
			default:
			}
			recruit()
			i := next.Add(1) - 1
			if i >= n {
				return
			}
			tasks[i]()
		}
	}
	work()
	wg.Wait()
	return ctx.Err()
}
