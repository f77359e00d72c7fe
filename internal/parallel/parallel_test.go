package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func withWorkers(t *testing.T, n int) {
	t.Helper()
	old := Workers()
	SetWorkers(n)
	t.Cleanup(func() { SetWorkers(old) })
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		withWorkers(t, workers)
		for _, n := range []int{0, 1, 2, 3, 7, 64, 1000} {
			counts := make([]int64, n)
			For(n, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					atomic.AddInt64(&counts[i], 1)
				}
			})
			for i, c := range counts {
				if c != 1 {
					t.Fatalf("workers=%d n=%d: index %d executed %d times", workers, n, i, c)
				}
			}
		}
	}
}

func TestForSerialBelowGrain(t *testing.T) {
	withWorkers(t, 8)
	calls := 0
	For(10, 6, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected single full-range call, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected 1 serial call, got %d", calls)
	}
}

func TestNestedForDoesNotDeadlock(t *testing.T) {
	withWorkers(t, 4)
	var total int64
	For(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(8, 1, func(lo2, hi2 int) {
				atomic.AddInt64(&total, int64(hi2-lo2))
			})
		}
	})
	if total != 64 {
		t.Fatalf("nested For covered %d inner indices, want 64", total)
	}
}

func TestRunExecutesAllTasks(t *testing.T) {
	for _, workers := range []int{1, 3} {
		withWorkers(t, workers)
		const n = 17
		counts := make([]int64, n)
		tasks := make([]func(), n)
		for i := range tasks {
			i := i
			tasks[i] = func() { atomic.AddInt64(&counts[i], 1) }
		}
		Run(tasks...)
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: task %d ran %d times", workers, i, c)
			}
		}
	}
	Run() // zero tasks must be a no-op
}

func TestTokensReturnedAfterUse(t *testing.T) {
	withWorkers(t, 4)
	for round := 0; round < 50; round++ {
		For(100, 1, func(lo, hi int) {})
	}
	if got := tryAcquire(pool(), 8); got != 3 {
		t.Fatalf("pool leaked tokens: acquired %d helpers, want 3", got)
	} else {
		release(pool(), got)
	}
}

func TestChunkBoundsPartition(t *testing.T) {
	for n := 1; n < 50; n++ {
		for chunks := 1; chunks <= n; chunks++ {
			prev := 0
			for c := 0; c < chunks; c++ {
				lo, hi := chunkBounds(n, chunks, c)
				if lo != prev || hi < lo {
					t.Fatalf("n=%d chunks=%d c=%d: bad range [%d,%d), prev end %d", n, chunks, c, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d chunks=%d: ranges end at %d", n, chunks, prev)
			}
		}
	}
}

func TestRunCtxCancellationSkipsRemainingTasks(t *testing.T) {
	withWorkers(t, 1) // serial path: deterministic task order
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran int32
	tasks := make([]func(), 10)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			atomic.AddInt32(&ran, 1)
			if i == 2 {
				cancel()
			}
		}
	}
	err := RunCtx(ctx, tasks...)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled RunCtx must return the ctx error, got %v", err)
	}
	if got := atomic.LoadInt32(&ran); got != 3 {
		t.Fatalf("serial RunCtx must stop after the cancelling task: ran %d", got)
	}
}

func TestRunCtxUndoneMatchesRun(t *testing.T) {
	withWorkers(t, 4)
	var ran int32
	tasks := make([]func(), 20)
	for i := range tasks {
		tasks[i] = func() { atomic.AddInt32(&ran, 1) }
	}
	if err := RunCtx(context.Background(), tasks...); err != nil {
		t.Fatal(err)
	}
	if ran != 20 {
		t.Fatalf("ran %d of 20 tasks", ran)
	}
}

func TestRunCtxAlreadyCancelled(t *testing.T) {
	withWorkers(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran int32
	err := RunCtx(ctx, func() { atomic.AddInt32(&ran, 1) }, func() { atomic.AddInt32(&ran, 1) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if ran != 0 {
		t.Fatalf("no task should start under a dead ctx, ran %d", ran)
	}
}

// TestRunReleasesTokensOfFinishedWorkers: when one task outlives its
// siblings, the workers that ran out of tasks give their tokens back
// while it is still running, so a For nested in it can split — whichever
// goroutine, caller or helper, happens to be running it. When Run
// returns, every token is back in the pool.
func TestRunReleasesTokensOfFinishedWorkers(t *testing.T) {
	for _, workers := range []int{2, 4} {
		withWorkers(t, workers)
		var shortsLeft atomic.Int32
		shortsLeft.Store(3)
		shortsDone := make(chan struct{})
		short := func() {
			if shortsLeft.Add(-1) == 0 {
				close(shortsDone)
			}
		}
		chunks := 0
		long := func() {
			select {
			case <-shortsDone:
			case <-time.After(5 * time.Second):
				t.Error("the short tasks never ran beside the long one")
				return
			}
			// The siblings' workers return their tokens just after their
			// last task, not before: poll until the pool has them.
			for deadline := time.Now().Add(5 * time.Second); chunks < workers && time.Now().Before(deadline); runtime.Gosched() {
				var calls atomic.Int32
				For(workers, 1, func(lo, hi int) { calls.Add(1) })
				chunks = int(calls.Load())
			}
		}
		Run(long, short, short, short)
		if chunks != workers {
			t.Fatalf("workers=%d: a For nested in the last running task split %d ways; the finished workers kept their tokens", workers, chunks)
		}
		if free := tryAcquire(pool(), workers); free != workers-1 {
			t.Fatalf("workers=%d: %d tokens in the pool after Run, want %d", workers, free, workers-1)
		} else {
			release(pool(), free)
		}
	}
}

// TestRunRecruitsHelperWhenTokenFreed: a Run that starts on a drained
// pool runs on the caller alone; when a token comes back while at least
// two of its tasks are unstarted, the next task boundary recruits a
// helper, so the two tasks that wait for each other meet. When Run
// returns, every token is back in the pool.
func TestRunRecruitsHelperWhenTokenFreed(t *testing.T) {
	for _, workers := range []int{2, 4} {
		withWorkers(t, workers)
		held := tryAcquire(pool(), workers)
		if held != workers-1 {
			t.Fatalf("workers=%d: drained %d tokens, want %d", workers, held, workers-1)
		}
		var arrived atomic.Int32
		var missed atomic.Bool
		meet := func() {
			arrived.Add(1)
			for deadline := time.Now().Add(5 * time.Second); arrived.Load() < 2; runtime.Gosched() {
				if time.Now().After(deadline) {
					missed.Store(true)
					return
				}
			}
		}
		giveBack := func() { release(pool(), held) }
		var after atomic.Int32
		tail := func() { after.Add(1) }
		Run(giveBack, meet, meet, tail, tail)
		if missed.Load() {
			t.Fatalf("workers=%d: no helper joined after the pool's tokens came back", workers)
		}
		if after.Load() != 2 {
			t.Fatalf("workers=%d: %d of the 2 trailing tasks ran", workers, after.Load())
		}
		if free := tryAcquire(pool(), workers); free != workers-1 {
			t.Fatalf("workers=%d: %d tokens in the pool after Run, want %d", workers, free, workers-1)
		} else {
			release(pool(), free)
		}
	}
}
