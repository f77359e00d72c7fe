// Package jobqueue is a bounded FIFO admission queue with a fixed-size
// dispatch pool: the primitive underneath homunculus.Service. Submit
// either admits a task (returning a Ticket) or rejects it immediately
// (ErrFull / ErrClosed) — admission never blocks, which is what lets a
// service's Submit return in microseconds regardless of how much work is
// already in flight. Tickets can be cancelled while still pending, in
// which case the task provably never runs. Close stops intake, drops the
// pending backlog through each ticket's drop callback, and waits for the
// tasks already dispatched to finish.
//
// The queue deliberately knows nothing about jobs, contexts, or results:
// tasks are opaque funcs, and cancellation of *running* work is the
// caller's business (homunculus.Job carries the context).
package jobqueue

import (
	"errors"
	"sync"
)

var (
	// ErrFull rejects a Submit when the backlog — pending tasks no idle
	// worker is about to take — is at capacity.
	ErrFull = errors.New("jobqueue: queue full")
	// ErrClosed rejects a Submit after Close, and is handed to the drop
	// callback of every ticket still pending when Close runs.
	ErrClosed = errors.New("jobqueue: queue closed")
)

// ticket lifecycle states.
const (
	statePending = iota
	stateRunning
	stateDone
	stateCancelled
	stateDropped
)

// Ticket is the handle for one admitted task.
type Ticket struct {
	q     *Queue
	run   func()
	drop  func(error)
	state int
}

// Cancel removes the ticket's task from the pending backlog. It returns
// true when the task had not been dispatched yet — the task will never
// run and its drop callback will not fire. It returns false when the
// task is already running (or finished, or was dropped by Close); the
// caller must then cancel the running work through its own means.
func (t *Ticket) Cancel() bool {
	t.q.mu.Lock()
	defer t.q.mu.Unlock()
	if t.state != statePending {
		return false
	}
	for i, p := range t.q.pending {
		if p == t {
			t.q.pending = append(t.q.pending[:i], t.q.pending[i+1:]...)
			t.state = stateCancelled
			return true
		}
	}
	return false
}

// Queue is the bounded admission queue. Zero value is not usable; use New.
type Queue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	pending []*Ticket
	running int
	workers int
	depth   int // max pending beyond the idle workers; negative means unbounded
	closed  bool
	wg      sync.WaitGroup
}

// New starts a queue with the given number of dispatch workers (the
// in-flight cap; clipped up to 1) and backlog depth: how many tasks may
// wait with every worker busy (negative means unbounded).
func New(workers, depth int) *Queue {
	if workers < 1 {
		workers = 1
	}
	q := &Queue{workers: workers, depth: depth}
	q.cond = sync.NewCond(&q.mu)
	q.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

// Submit admits run to the backlog, or rejects it without blocking. drop
// (optional) is invoked — outside the queue lock, never concurrently with
// run — if the queue closes before the task is dispatched.
func (q *Queue) Submit(run func(), drop func(error)) (*Ticket, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	// A pending task an idle worker has been signalled for but not yet
	// dequeued is not waiting on anyone: only the rest are backlog.
	if idle := q.workers - q.running; q.depth >= 0 && len(q.pending)-idle >= q.depth {
		return nil, ErrFull
	}
	t := &Ticket{q: q, run: run, drop: drop}
	q.pending = append(q.pending, t)
	q.cond.Signal()
	return t, nil
}

// Stats reports the backlog and in-flight sizes.
func (q *Queue) Stats() (pending, running int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending), q.running
}

// Close stops intake, fails every still-pending ticket through its drop
// callback with ErrClosed, and blocks until the tasks already running
// have finished. Idempotent.
func (q *Queue) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	dropped := q.pending
	q.pending = nil
	for _, t := range dropped {
		t.state = stateDropped
	}
	q.cond.Broadcast()
	q.mu.Unlock()
	for _, t := range dropped {
		if t.drop != nil {
			t.drop(ErrClosed)
		}
	}
	q.wg.Wait()
}

func (q *Queue) worker() {
	defer q.wg.Done()
	q.mu.Lock()
	for {
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if len(q.pending) == 0 {
			// Closed and drained: the worker retires.
			q.mu.Unlock()
			return
		}
		t := q.pending[0]
		q.pending = q.pending[1:]
		t.state = stateRunning
		q.running++
		q.mu.Unlock()
		t.run()
		q.mu.Lock()
		t.state = stateDone
		q.running--
	}
}
