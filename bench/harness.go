package main

// The harness boots the system under test inside the benchmark process —
// a durable homunculus.Service behind httpapi.NewServer on a loopback
// listener — and drives it with closed-loop clients: a client sends its
// next operation when the previous one has returned.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	homunculus "repro"
	"repro/internal/httpapi"
)

// node is one booted service with its HTTP front end.
type node struct {
	dir  string
	svc  *homunculus.Service
	srv  *http.Server
	base string
	done chan struct{} // closed when Serve has returned
}

// stateRoot is where every run keeps its service state directories:
// inside the checkout, next to the build outputs.
func stateRoot() string { return filepath.Join(rootDir(), ".bench_build", "state") }

// rootDir is the checkout root: the directory holding BENCHMARK.json,
// which is the working directory under bench/run.sh and its parent under
// `go test` in bench/.
func rootDir() string {
	if _, err := os.Stat("BENCHMARK.json"); err != nil {
		if _, err := os.Stat(filepath.Join("..", "BENCHMARK.json")); err == nil {
			return ".."
		}
	}
	return "."
}

// newStateDir makes a fresh, empty state directory.
func newStateDir() (string, error) {
	if err := os.MkdirAll(stateRoot(), 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(stateRoot(), fmt.Sprintf("run-%d-", os.Getpid()))
}

// boot opens a durable service on dir and serves it on loopback.
func boot(dir string, opts homunculus.ServiceOptions) (*node, error) {
	opts.StateDir = dir
	svc, err := homunculus.Open(opts)
	if err != nil {
		return nil, fmt.Errorf("open service on %s: %w", dir, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = svc.Close()
		return nil, err
	}
	n := &node{
		dir:  dir,
		svc:  svc,
		srv:  &http.Server{Handler: httpapi.NewServer(svc)},
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // returns ErrServerClosed on shutdown
	}()
	return n, nil
}

// shutdown stops the HTTP server and drains the service; the state
// directory stays, so the same node can be booted again on it.
func (n *node) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := n.srv.Shutdown(ctx)
	<-n.done
	if cerr := n.svc.Close(); err == nil {
		err = cerr
	}
	return err
}

// destroy shuts the node down and removes its state directory.
func (n *node) destroy() error {
	err := n.shutdown()
	if rerr := os.RemoveAll(n.dir); err == nil {
		err = rerr
	}
	return err
}

// compileAll submits specs in-process (set-up only) and waits for every
// pipeline.
func (n *node) compileAll(specs []jobSpec) ([]*homunculus.Job, error) {
	jobs := make([]*homunculus.Job, len(specs))
	for i := range specs {
		specs[i].register()
		p, opts, err := specs[i].submission()
		if err != nil {
			return nil, err
		}
		if jobs[i], err = n.svc.Submit(context.Background(), p, opts...); err != nil {
			return nil, fmt.Errorf("submit %s: %w", specs[i].Shape, err)
		}
	}
	for i, j := range jobs {
		if _, err := j.Wait(context.Background()); err != nil {
			return nil, fmt.Errorf("compile %s: %w", specs[i].Shape, err)
		}
	}
	return jobs, nil
}

// httpRequests counts every HTTP request the benchmark's clients send,
// so a traced run can show which workloads issue none.
var httpRequests atomic.Int64

// client is one closed-loop HTTP client with a single keep-alive
// connection.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	return &client{base: base, http: &http.Client{Transport: tr}}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// post sends body and decodes the JSON reply into out.
func (c *client) post(path string, body []byte, out any) (int, error) {
	httpRequests.Add(1)
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	return decodeReply(resp, err, out)
}

func (c *client) get(path string, out any) (int, error) {
	httpRequests.Add(1)
	resp, err := c.http.Get(c.base + path)
	return decodeReply(resp, err, out)
}

func decodeReply(resp *http.Response, err error, out any) (int, error) {
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return resp.StatusCode, err
	}
	_, _ = io.Copy(io.Discard, resp.Body) // reach EOF so the connection is reused
	return resp.StatusCode, nil
}

// jobOutcome is what an operator sees of one job.
type jobOutcome struct {
	id       string
	progress int // SSE progress events before the terminal state event
	status   httpapi.JobJSON
}

// runJob is one compile operation as a user performs it: POST the spec,
// follow the SSE stream to the terminal event, GET the result.
func (c *client) runJob(body []byte, tr *tracer, op int) (jobOutcome, error) {
	var out jobOutcome
	t0 := time.Now()
	var accepted httpapi.JobJSON
	code, err := c.post("/v1/jobs", body, &accepted)
	if err != nil {
		return out, fmt.Errorf("POST /v1/jobs: %w", err)
	}
	if code != http.StatusAccepted {
		return out, fmt.Errorf("POST /v1/jobs: status %d", code)
	}
	out.id = accepted.ID
	t1 := time.Now()
	httpRequests.Add(1)
	resp, err := c.http.Get(c.base + "/v1/jobs/" + out.id + "/events")
	if err != nil {
		return out, fmt.Errorf("GET events: %w", err)
	}
	terminal := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		switch line := sc.Bytes(); {
		case bytes.Equal(line, []byte("event: progress")):
			out.progress++
		case bytes.Equal(line, []byte("event: state")):
			terminal = true
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return out, fmt.Errorf("read events: %w", err)
	}
	if !terminal {
		return out, fmt.Errorf("event stream of %s ended without a state event", out.id)
	}
	t2 := time.Now()
	if code, err = c.get("/v1/jobs/"+out.id, &out.status); err != nil || code != http.StatusOK {
		return out, fmt.Errorf("GET job %s: status %d: %v", out.id, code, err)
	}
	if tr != nil {
		t3 := time.Now()
		root := tr.add("op.job", 0, op, t0, t3)
		tr.add("httpapi.submit", root, op, t0, t1)
		tr.add("httpapi.events", root, op, t1, t2)
		tr.add("httpapi.status", root, op, t2, t3)
	}
	return out, nil
}

// jobOK reports whether a finished job is a success as the benchmark
// counts it: done, every app validated without divergence.
func jobOK(st httpapi.JobJSON) bool {
	if st.State != homunculus.JobDone || st.Result == nil || len(st.Result.Apps) == 0 {
		return false
	}
	for _, a := range st.Result.Apps {
		if a.Validation == nil || !a.Validation.OK {
			return false
		}
	}
	return true
}

// jobQuality is the mean achieved objective over a job's apps.
func jobQuality(st httpapi.JobJSON) float64 {
	var sum float64
	for _, a := range st.Result.Apps {
		sum += a.Metric
	}
	return sum / float64(len(st.Result.Apps))
}

// phase is the raw record of one measured (or warm-up) phase.
type phase struct {
	samples []sample // sorted by end time
	// marks are the window boundaries, recorded by client 0 as it crosses
	// them: elapsed time and process CPU time at that moment.
	marks     []mark
	wall      time.Duration
	attempted int
	failed    int
	mem       memDelta
}

type mark struct{ at, cpu time.Duration }

// memDelta is the allocator's and collector's work over a phase.
type memDelta struct {
	allocs, bytes uint64
	gcCycles      uint32
	gcPause       time.Duration
}

// sampleRoom is the number of samples a client has room for before its
// slice must grow: more than any workload completes per client in a
// 10 s run at the parent commit.
const sampleRoom = 1 << 18

// phaseWindows is how many equal stretches of time a measured phase is
// cut into when its ops are alike.
const phaseWindows = 20

// opFunc performs operation i of client c and reports whether its output
// was correct. It is called from the client's own goroutine.
type opFunc func(c, i int) bool

// loop describes a closed-loop phase: clients goroutines, each calling
// op with i = 0, 1, 2, ... and sending its next op when the previous one
// has returned, for d.
type loop struct {
	clients int
	d       time.Duration
	// group > 1 makes the phase a sequence of whole groups of that many
	// ops (a compile round): the clock is checked, and a window boundary
	// marked, between groups only. Otherwise the clock is checked before
	// every op and the phase is cut into phaseWindows windows by time.
	group int
	// limit > 0 caps a client's operations.
	limit int
}

func (l loop) run(op opFunc) phase {
	per := make([][]sample, l.clients)
	failed := make([]int, l.clients)
	group := max(l.group, 1)
	var marks []mark
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	marks = append(marks, mark{0, cpuTime()})
	var wg sync.WaitGroup
	for c := 0; c < l.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Room for a whole run up front: a slice that grew during the
			// phase would grow the live heap with it, and the collector
			// would run less and less often as the phase went on.
			room := sampleRoom
			if l.limit > 0 {
				room = min(room, l.limit)
			}
			samples := make([]sample, 0, room)
			nextMark := l.d / phaseWindows
			for i := 0; l.limit <= 0 || i < l.limit; i++ {
				t0 := time.Now()
				if i%group == 0 && t0.Sub(start) >= l.d {
					break
				}
				ok := op(c, i)
				t1 := time.Now()
				end := t1.Sub(start)
				samples = append(samples, sample{end: end, lat: t1.Sub(t0)})
				if !ok {
					failed[c]++
				}
				if c != 0 {
					continue
				}
				if l.group > 1 {
					if (i+1)%group == 0 {
						marks = append(marks, mark{end, cpuTime()})
					}
				} else if end >= nextMark {
					marks = append(marks, mark{end, cpuTime()})
					nextMark += l.d / phaseWindows
				}
			}
			per[c] = samples
		}()
	}
	wg.Wait()
	ph := phase{wall: time.Since(start), marks: marks}
	runtime.ReadMemStats(&ms1)
	ph.mem = memDelta{
		allocs: ms1.Mallocs - ms0.Mallocs, bytes: ms1.TotalAlloc - ms0.TotalAlloc,
		gcCycles: ms1.NumGC - ms0.NumGC, gcPause: time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs),
	}
	for c := range per {
		ph.samples = append(ph.samples, per[c]...)
		ph.attempted += len(per[c])
		ph.failed += failed[c]
	}
	// One client's samples are already in op order; a stable sort keeps
	// them so, which the per-group reduction relies on.
	sort.SliceStable(ph.samples, func(i, j int) bool { return ph.samples[i].end < ph.samples[j].end })
	return ph
}
