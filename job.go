package homunculus

// Job is the asynchronous handle a Service.Submit returns: identity,
// a state machine (queued → running → done/failed/cancelled), a
// per-stage progress snapshot built from the pipeline's Event stream,
// an event subscription feed, and the terminal result.

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/jobqueue"
	"repro/internal/store"
)

// JobState is one point of the job lifecycle.
type JobState string

// Job lifecycle states.
const (
	// JobQueued: admitted, waiting for a dispatch slot.
	JobQueued JobState = "queued"
	// JobRunning: compiling (or resolving from the cache).
	JobRunning JobState = "running"
	// JobDone: finished with a Pipeline.
	JobDone JobState = "done"
	// JobFailed: finished with a non-cancellation error.
	JobFailed JobState = "failed"
	// JobCancelled: cancelled (or deadline-expired) before completing.
	JobCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCancelled
}

// StageProgress counts the start and completion events one pipeline
// stage has emitted (per app, plus candidate-level events for search).
type StageProgress struct {
	Started int `json:"started"`
	Done    int `json:"done"`
}

// JobStatus is a point-in-time snapshot of a job.
type JobStatus struct {
	ID       string
	Platform string
	State    JobState
	// CacheHit is true when the result came from the content-addressed
	// cache (including single-flight coalescing onto a concurrent
	// identical submission) — such jobs emit no pipeline events.
	CacheHit bool
	// SpecHash is the submission's content address (empty until the job
	// dispatches, or always empty on a cache-disabled service).
	SpecHash string
	// Stages maps each pipeline stage to its progress so far.
	Stages map[Stage]StageProgress
	// Err is the terminal error of a failed or cancelled job.
	Err error
}

// ErrJobNotFinished is returned by Job.Result while the job is still
// queued or running.
var ErrJobNotFinished = errors.New("homunculus: job not finished")

// Job is an asynchronous compilation handle. All methods are safe for
// concurrent use.
type Job struct {
	id        string
	platform  string
	cancelCtx context.CancelFunc
	// ctx is the job's run context (derived from the Submit ctx); the
	// cluster fabric's RunLocal fallback executes under it so a client
	// Cancel still lands after a job has been claimed by a peer.
	ctx context.Context

	// onFinish, when set by a durable service before the job can reach a
	// terminal state, runs exactly once after the terminal transition
	// (outside the job's mutex) — it is the write-ahead journal's hook.
	onFinish func(*Job)

	mu       sync.Mutex
	cond     *sync.Cond
	state    JobState
	cacheHit bool
	specHash string
	// wire retains the submission's wire form while the job is queued on
	// a work-sharing service, so peers can steal it (cluster.go). Zero
	// everywhere else.
	wire      store.WireJob
	stages    map[Stage]*StageProgress
	events    []Event
	cancelled bool
	ticket    *jobqueue.Ticket
	pipe      *Pipeline
	err       error
	done      chan struct{}
}

func newJob(id, platform string, cancel context.CancelFunc) *Job {
	j := &Job{
		id:        id,
		platform:  platform,
		cancelCtx: cancel,
		state:     JobQueued,
		stages:    map[Stage]*StageProgress{},
		done:      make(chan struct{}),
	}
	j.cond = sync.NewCond(&j.mu)
	return j
}

// ID returns the service-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Platform returns the declared platform kind.
func (j *Job) Platform() string { return j.platform }

// Status returns a snapshot of the job's state and per-stage progress.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:       j.id,
		Platform: j.platform,
		State:    j.state,
		CacheHit: j.cacheHit,
		SpecHash: j.specHash,
		Stages:   make(map[Stage]StageProgress, len(j.stages)),
		Err:      j.err,
	}
	for stage, p := range j.stages {
		st.Stages[stage] = *p
	}
	return st
}

// Events returns a subscription to the job's progress events. The
// channel first replays every event emitted so far, then follows the
// live stream, and closes once the job is terminal and the log is
// drained. Consumers must drain the channel (its feeding goroutine
// blocks on an abandoned subscriber until the job ends).
func (j *Job) Events() <-chan Event {
	ch := make(chan Event, 16)
	go func() {
		defer close(ch)
		i := 0
		j.mu.Lock()
		for {
			for i >= len(j.events) && !j.state.Terminal() {
				j.cond.Wait()
			}
			if i >= len(j.events) {
				j.mu.Unlock()
				return
			}
			ev := j.events[i]
			i++
			j.mu.Unlock()
			ch <- ev
			j.mu.Lock()
		}
	}()
	return ch
}

// Wait blocks until the job is terminal or ctx is done, returning the
// compiled pipeline or the job's terminal error. A ctx expiry only stops
// the wait — it does not cancel the job (the job's own context, derived
// from the Submit ctx, and Cancel do that).
func (j *Job) Wait(ctx context.Context) (*Pipeline, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		// Prefer the terminal result when both are ready.
		select {
		case <-j.done:
		default:
			return nil, fmt.Errorf("homunculus: wait for job %s: %w", j.id, ctx.Err())
		}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.pipe, j.err
}

// Result returns the terminal outcome without blocking;
// ErrJobNotFinished while the job is still queued or running.
func (j *Job) Result() (*Pipeline, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		return nil, ErrJobNotFinished
	}
	return j.pipe, j.err
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel stops the job: a still-queued job is withdrawn and never runs;
// a running one is cancelled through its context and aborts at the next
// cancellation point. Safe to call repeatedly and after completion.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.cancelled = true
	ticket := j.ticket
	j.mu.Unlock()
	if ticket != nil && ticket.Cancel() {
		// Withdrawn before dispatch: the run function will never fire,
		// so the terminal transition happens here.
		j.finish(nil, fmt.Errorf("homunculus: job %s cancelled before dispatch: %w", j.id, context.Canceled))
	}
	j.cancelCtx()
}

// observe records one pipeline event: append to the log, bump the
// stage's counters, wake subscribers. Calls are serialized by the
// pipeline's own progress mutex.
func (j *Job) observe(ev Event) {
	j.mu.Lock()
	p := j.stages[ev.Stage]
	if p == nil {
		p = &StageProgress{}
		j.stages[ev.Stage] = p
	}
	if ev.Done {
		p.Done++
	} else {
		p.Started++
	}
	j.events = append(j.events, ev)
	j.cond.Broadcast()
	j.mu.Unlock()
}

// setRunning transitions queued → running (no-op once terminal).
func (j *Job) setRunning() {
	j.mu.Lock()
	if j.state == JobQueued {
		j.state = JobRunning
	}
	j.mu.Unlock()
}

// setWire retains the submission's wire form for work stealing.
func (j *Job) setWire(wj store.WireJob) {
	j.mu.Lock()
	j.wire = wj
	j.mu.Unlock()
}

// setSpecHash records the content address once computed.
func (j *Job) setSpecHash(h string) {
	j.mu.Lock()
	j.specHash = h
	j.mu.Unlock()
}

// markCacheHit flags the job as resolved from the cache.
func (j *Job) markCacheHit() {
	j.mu.Lock()
	j.cacheHit = true
	j.mu.Unlock()
}

// finish moves the job to its terminal state exactly once.
func (j *Job) finish(pipe *Pipeline, err error) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.pipe, j.err = pipe, err
	switch {
	case err == nil:
		j.state = JobDone
	case j.cancelled || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.state = JobCancelled
	default:
		j.state = JobFailed
	}
	j.cond.Broadcast()
	close(j.done)
	j.mu.Unlock()
	// Release the job's context registration in the Submit ctx's tree —
	// without this, every completed job of a long-lived cancellable
	// parent context would stay reachable until the parent dies.
	j.cancelCtx()
	if j.onFinish != nil {
		j.onFinish(j)
	}
}
