package jobqueue

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFIFODispatchOrder(t *testing.T) {
	q := New(1, -1)
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		i := i
		wg.Add(1)
		if _, err := q.Submit(func() {
			defer wg.Done()
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	q.Close()
	for i, got := range order {
		if got != i {
			t.Fatalf("dispatch order %v, want FIFO", order)
		}
	}
}

func TestWorkerCapBoundsConcurrency(t *testing.T) {
	const workers = 2
	q := New(workers, -1)
	defer q.Close()
	var cur, max atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		if _, err := q.Submit(func() {
			defer wg.Done()
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			cur.Add(-1)
		}, nil); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if got := max.Load(); got > workers {
		t.Fatalf("observed %d concurrent tasks, cap is %d", got, workers)
	}
}

func TestDepthRejectsWithErrFull(t *testing.T) {
	q := New(1, 1)
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := q.Submit(func() { close(started); <-release }, nil); err != nil {
		t.Fatal(err)
	}
	<-started // the worker holds task 1; the backlog is empty
	if _, err := q.Submit(func() {}, nil); err != nil {
		t.Fatalf("second submit must queue: %v", err)
	}
	if _, err := q.Submit(func() {}, nil); !errors.Is(err, ErrFull) {
		t.Fatalf("third submit must be ErrFull, got %v", err)
	}
	close(release)
	q.Close()
}

func TestCancelPendingNeverRuns(t *testing.T) {
	q := New(1, -1)
	release := make(chan struct{})
	started := make(chan struct{})
	if _, err := q.Submit(func() { close(started); <-release }, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	var ran atomic.Bool
	ticket, err := q.Submit(func() { ran.Store(true) }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !ticket.Cancel() {
		t.Fatal("pending ticket must cancel")
	}
	if ticket.Cancel() {
		t.Fatal("double cancel must report false")
	}
	close(release)
	q.Close() // waits for the running task; the cancelled one must not run
	if ran.Load() {
		t.Fatal("cancelled pending task ran")
	}
}

func TestCancelAfterDispatchReturnsFalse(t *testing.T) {
	q := New(1, -1)
	started := make(chan struct{})
	release := make(chan struct{})
	ticket, err := q.Submit(func() { close(started); <-release }, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if ticket.Cancel() {
		t.Fatal("running ticket must not cancel")
	}
	close(release)
	q.Close()
}

func TestCloseDropsPendingAndDrainsRunning(t *testing.T) {
	q := New(1, -1)
	release := make(chan struct{})
	started := make(chan struct{})
	var finished atomic.Bool
	if _, err := q.Submit(func() {
		close(started)
		<-release
		finished.Store(true)
	}, nil); err != nil {
		t.Fatal(err)
	}
	<-started
	var ran atomic.Bool
	dropErr := make(chan error, 1)
	if _, err := q.Submit(func() { ran.Store(true) }, func(err error) { dropErr <- err }); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		q.Close()
		close(closed)
	}()
	// The pending task is dropped promptly even while task 1 runs.
	select {
	case err := <-dropErr:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("drop error = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pending task not dropped by Close")
	}
	select {
	case <-closed:
		t.Fatal("Close returned while a task was still running")
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	<-closed
	if !finished.Load() {
		t.Fatal("Close must drain the running task")
	}
	if ran.Load() {
		t.Fatal("dropped task ran")
	}
	if _, err := q.Submit(func() {}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
}

// TestSubmitCountsIdleWorkers: a task an idle worker is about to take is
// not backlog. With one worker and depth 1, two back-to-back submits
// must both be admitted however far the worker has got with the first —
// it is either running it (one task waits) or about to (none does).
func TestSubmitCountsIdleWorkers(t *testing.T) {
	for i := 0; i < 500; i++ {
		q := New(1, 1)
		for k := 1; k <= 2; k++ {
			if _, err := q.Submit(func() {}, nil); err != nil {
				t.Fatalf("round %d: submit %d: %v", i, k, err)
			}
		}
		q.Close()
	}
}
