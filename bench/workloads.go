package main

// The five workloads. Two drive the compile path (cold: every job
// searches; warm: every job is a cache hit and search is bypassed) and
// three the serve path (one vector per HTTP request; 256 per request;
// in-process calls with no HTTP at all).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	homunculus "repro"
	"repro/internal/httpapi"
	"repro/internal/ir"
)

// workloadDef is the static description of a workload; the same text
// goes into BENCHMARK.json and bench/README.md.
type workloadDef struct {
	name string
	why  string
	// clients is the closed-loop client count: 1 for compile workloads
	// (an operator waiting on a job), nproc for serve workloads.
	clients int
	// tailPct is the tail percentile: over a window's ops where ops are
	// alike — the highest whose ten-seed spread stayed under 10% at the
	// parent commit (see README) — and over the nine shapes on compile_cold.
	tailPct float64
	// callsPerOp is how many requests one timed op holds (256 on
	// serve_inproc, which times blocks so the clock stays under 1% of
	// the work); latencies and CPU are reported per request.
	callsPerOp int
	// vectorsPerCall is how many feature vectors one request carries
	// (0 on compile workloads, whose throughput is in jobs).
	vectorsPerCall int
	make           func(seed int64) (workloadRun, error)
}

// workloadRun is one workload bound to a seed: its generated inputs and,
// between setup and teardown, the booted system.
type workloadRun interface {
	inputHash() string
	// setup boots the system, compiles what the workload serves or
	// resubmits, and warms up pools, connections and the first GC.
	setup() error
	// run is the measured closed-loop phase.
	run(d time.Duration, tr *tracer) phase
	// quality is the workload's model_quality over the last run.
	quality() float64
	// golden summarises the run's outputs for the checked-in goldens.
	golden() goldenDoc
	// ledger measures the layers on this workload's path (traced runs).
	ledger(lg *ledger)
	teardown() error
}

func nproc() int { return runtime.NumCPU() }

var workloadDefs = []workloadDef{
	{
		name:    "compile_cold",
		why:     "The operator's wait: distinct specs one at a time over HTTP (POST, SSE, GET), 3 datasets x 3 targets, every family searched. Search (training + BO) is ~96% of a job; store, journal, HTTP almost none.",
		clients: 1, tailPct: 75, callsPerOp: 1,
		make: func(seed int64) (workloadRun, error) { return newColdRun(seed), nil },
	},
	{
		name:    "compile_warm",
		why:     "Search bypassed: service reopened with the memory cache off, the same specs resubmitted, every job an artifact-store hit. Work is HTTP, job queue, spec hash, journal fsync, artifact read, decode.",
		clients: 1, tailPct: 90, callsPerOp: 1,
		make: func(seed int64) (workloadRun, error) { return newWarmRun(seed), nil },
	},
	{
		name:    "serve_http_single",
		why:     "What one classify costs over the wire: nproc closed-loop clients, one vector per POST to a DNN endpoint. net/http and httpapi JSON dominate; ring and predictor are a few percent.",
		clients: nproc(), tailPct: 95, callsPerOp: 1, vectorsPerCall: 1,
		make: func(seed int64) (workloadRun, error) { return newHTTPRun(seed, 1, 4096) },
	},
	{
		name:    "serve_http_batch",
		why:     "Request overhead amortised: 256 vectors per POST, so JSON float decoding dominates and ring + predictor are about a third. Separates a cheaper request from a cheaper vector.",
		clients: nproc(), tailPct: 90, callsPerOp: 1, vectorsPerCall: 256,
		make: func(seed int64) (workloadRun, error) { return newHTTPRun(seed, 256, 32) },
	},
	{
		name:    "serve_inproc",
		why:     "The library user's ns-scale loop, HTTP bypassed: nproc goroutines call Endpoint.Classify over four endpoints (DNN, dtree + 50% canary, SVM + shadow, KMeans). Ring, routing, predictors are all of it.",
		clients: nproc(), tailPct: 95, callsPerOp: inprocBlock, vectorsPerCall: 1,
		make: func(seed int64) (workloadRun, error) { return newInprocRun(seed) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, d := range workloadDefs {
		if d.name == name {
			return d, true
		}
	}
	return workloadDef{}, false
}

// roundQuality rounds an achieved objective to nine decimals for the
// goldens: at the parent commit a KMeans model's V-measure differs in its
// last bits from run to run (the model itself does not).
func roundQuality(q float64) float64 { return math.Round(q*1e9) / 1e9 }

// artifactDigest is what the golden files pin of a finished job: the
// sha256 of its canonical pipeline document, with each app's metric
// rounded as above.
func artifactDigest(svc *homunculus.Service, jobID string) string {
	j, ok := svc.Job(jobID)
	if !ok {
		return "job-missing"
	}
	pipe, err := j.Result()
	if err != nil {
		return "no-result"
	}
	raw, err := homunculus.MarshalPipeline(pipe)
	if err != nil {
		return "unmarshalable"
	}
	var whole map[string]any
	if err := json.Unmarshal(raw, &whole); err != nil {
		return "unparseable"
	}
	apps, _ := whole["apps"].([]any)
	for _, a := range apps {
		if app, ok := a.(map[string]any); ok {
			if q, ok := app["metric"].(float64); ok {
				app["metric"] = roundQuality(q)
			}
		}
	}
	canon, err := json.Marshal(whole) // map keys are written sorted
	if err != nil {
		return "unmarshalable"
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:])
}

// ---- compile_cold ----

// warmupSpec is compiled once before timing on the compile workloads:
// it opens the keep-alive connection, fills the worker and arena pools
// and gets the first GC cycles out of the way.
func warmupSpec() jobSpec {
	j := shapeSpec("nslkdd", "taurus", warmSize, rand.New(rand.NewSource(99)))
	j.register()
	return j
}

type coldRun struct {
	flat     []jobSpec // every round's specs, in submission order
	shape    []int     // flat[i]'s shape, as an index into the nine
	roundLen int

	node     *node
	client   *client
	next     int // first spec not yet submitted to this node
	runStart int // next when the last run began
	outcomes []jobOutcome
}

func newColdRun(seed int64) *coldRun {
	rounds := genColdRounds(seed, coldRounds)
	r := &coldRun{roundLen: len(rounds[0])}
	index := map[string]int{}
	for _, round := range rounds {
		for _, j := range round {
			if _, ok := index[j.Shape]; !ok {
				index[j.Shape] = len(index)
			}
			r.flat, r.shape = append(r.flat, j), append(r.shape, index[j.Shape])
		}
	}
	return r
}

// groupOf maps op i of the last run to its shape: compile_cold's ops
// differ in kind, so its latencies are reduced shape by shape.
func (r *coldRun) groupOf(i int) int { return r.shape[r.runStart+i] }

func (r *coldRun) inputHash() string {
	var ih inputHasher
	for i := range r.flat {
		ih.addJSON(r.flat[i])
		ih.add(r.flat[i].Body)
	}
	return ih.sum()
}

func (r *coldRun) setup() error {
	dir, err := newStateDir()
	if err != nil {
		return err
	}
	if r.node, err = boot(dir, homunculus.ServiceOptions{}); err != nil {
		return err
	}
	for i := range r.flat {
		r.flat[i].register()
	}
	r.client, r.next = newClient(r.node.base), 0
	w := warmupSpec()
	if out, err := r.client.runJob(w.Body, nil, 0); err != nil || !jobOK(out.status) {
		return fmt.Errorf("warm-up job: %v (state %q)", err, out.status.State)
	}
	runtime.GC()
	return nil
}

func (r *coldRun) run(d time.Duration, tr *tracer) phase {
	r.outcomes, r.runStart = r.outcomes[:0], r.next
	// Leave one round of fresh specs for the traced run's ledger.
	limit := len(r.flat) - r.next - r.roundLen
	return loop{clients: 1, d: d, group: r.roundLen, limit: limit}.run(func(_, i int) bool {
		spec := r.flat[r.next]
		r.next++
		out, err := r.client.runJob(spec.Body, tr, i)
		r.outcomes = append(r.outcomes, out)
		// A cold job searched: it is not a cache hit and it streamed
		// stage events.
		return err == nil && jobOK(out.status) && !out.status.CacheHit && out.progress > 0
	})
}

func (r *coldRun) quality() float64 {
	var sum float64
	n := 0
	for _, out := range r.outcomes {
		if jobOK(out.status) {
			sum += jobQuality(out.status)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// golden pins the first round, which every run completes whatever its
// length.
func (r *coldRun) golden() goldenDoc {
	g := goldenDoc{}
	for i, out := range r.outcomes {
		if i >= r.roundLen {
			break
		}
		q := 0.0
		if jobOK(out.status) {
			q = jobQuality(out.status)
		}
		g.Jobs = append(g.Jobs, goldenJob{Shape: r.flat[r.runStart+i].Shape, Quality: roundQuality(q), Digest: artifactDigest(r.node.svc, out.id)})
	}
	return g
}

func (r *coldRun) teardown() error {
	r.client.close()
	return r.node.destroy()
}

// ---- compile_warm ----

// warmRetain caps the finished jobs the reopened service keeps
// addressable. The default (4096) is more than a run submits on a slow
// host and fewer than on a fast one, which made peak memory a function
// of the host's speed.
const warmRetain = 256

type warmRun struct {
	specs []jobSpec
	order []int

	node   *node
	client *client
	gold   goldenDoc // the set-up compiles, by spec
	qSum   float64
	qN     int
}

func newWarmRun(seed int64) *warmRun {
	r := &warmRun{}
	r.specs, r.order = genWarm(seed)
	return r
}

func (r *warmRun) inputHash() string {
	var ih inputHasher
	for i := range r.specs {
		ih.addJSON(r.specs[i])
		ih.add(r.specs[i].Body)
	}
	ih.addJSON(r.order)
	return ih.sum()
}

func (r *warmRun) setup() error {
	dir, err := newStateDir()
	if err != nil {
		return err
	}
	first, err := boot(dir, homunculus.ServiceOptions{})
	if err != nil {
		return err
	}
	jobs, err := first.compileAll(r.specs)
	if err != nil {
		_ = first.destroy()
		return err
	}
	// The goldens pin the nine artifacts the workload will serve from
	// the store.
	r.gold = goldenDoc{}
	for i, j := range jobs {
		pipe, _ := j.Result()
		q := 0.0
		for _, a := range pipe.Apps {
			q += a.Metric / float64(len(pipe.Apps))
		}
		r.gold.Jobs = append(r.gold.Jobs, goldenJob{Shape: r.specs[i].Shape, Quality: roundQuality(q), Digest: artifactDigest(first.svc, j.ID())})
	}
	if err := first.shutdown(); err != nil {
		return err
	}
	// Reopen on the same state dir with the memory cache disabled: every
	// resubmission reads through to the artifact store.
	if r.node, err = boot(dir, homunculus.ServiceOptions{CacheEntries: -1, RetainJobs: warmRetain}); err != nil {
		return err
	}
	r.client = newClient(r.node.base)
	for i := 0; i < 64; i++ {
		if !r.op(nil, i, false) {
			return fmt.Errorf("warm-up resubmission %d was not a clean cache hit", i)
		}
	}
	runtime.GC()
	return nil
}

// op resubmits one spec; it is correct when it comes back done and
// validated as a cache hit that streamed no stage event.
func (r *warmRun) op(tr *tracer, i int, count bool) bool {
	out, err := r.client.runJob(r.specs[r.order[i%len(r.order)]].Body, tr, i)
	ok := err == nil && jobOK(out.status) && out.status.CacheHit && out.progress == 0
	if ok && count {
		r.qSum += jobQuality(out.status)
		r.qN++
	}
	return ok
}

func (r *warmRun) run(d time.Duration, tr *tracer) phase {
	r.qSum, r.qN = 0, 0
	return loop{clients: 1, d: d}.run(func(_, i int) bool { return r.op(tr, i, true) })
}

func (r *warmRun) quality() float64 {
	if r.qN == 0 {
		return 0
	}
	return r.qSum / float64(r.qN)
}

func (r *warmRun) golden() goldenDoc { return r.gold }

func (r *warmRun) teardown() error {
	r.client.close()
	return r.node.destroy()
}

// ---- serve fixtures ----

// served is one live endpoint with the benchmark's reference for it.
type served struct {
	fix    fixture
	ep     *homunculus.Endpoint
	models []*ir.Model // stable, then the canary when one is live
	pool   traffic
	// allowed[i] is the set of classes (bit c = class c) a correct
	// answer for pool vector i may be: Model.InferQ of the stable model,
	// or of either model while a canary splits traffic.
	allowed []uint64
	quality float64 // the stable model's achieved objective
}

// serveFixtures compiles the fixtures' models, creates their endpoints
// (with rollouts) and computes the reference classes.
func serveFixtures(n *node, fixtures []fixture, pools []traffic) ([]*served, error) {
	var specs []jobSpec
	for _, f := range fixtures {
		specs = append(specs, f.Spec)
		if f.Rollout != nil {
			specs = append(specs, *f.Rollout)
		}
	}
	jobs, err := n.compileAll(specs)
	if err != nil {
		return nil, err
	}
	var out []*served
	k := 0
	for fi, f := range fixtures {
		s := &served{fix: f, pool: pools[fi]}
		job := jobs[k]
		k++
		pipe, _ := job.Result()
		if pipe == nil || len(pipe.Apps) == 0 || pipe.Apps[0].Model == nil {
			return nil, fmt.Errorf("fixture %s: no deployable model", f.Endpoint)
		}
		s.models = append(s.models, pipe.Apps[0].Model)
		s.quality = pipe.Apps[0].Metric
		if s.ep, err = n.svc.CreateEndpoint(f.Endpoint, job.ID(), homunculus.EndpointOptions{}); err != nil {
			return nil, fmt.Errorf("fixture %s: %w", f.Endpoint, err)
		}
		if f.Rollout != nil {
			rjob := jobs[k]
			k++
			rpipe, _ := rjob.Result()
			if rpipe == nil || len(rpipe.Apps) == 0 || rpipe.Apps[0].Model == nil {
				return nil, fmt.Errorf("fixture %s rollout: no deployable model", f.Endpoint)
			}
			if _, err := s.ep.Rollout(rjob.ID(), homunculus.RolloutOptions{CanaryPercent: f.Canary, Shadow: f.Shadow}); err != nil {
				return nil, fmt.Errorf("fixture %s rollout: %w", f.Endpoint, err)
			}
			if !f.Shadow {
				s.models = append(s.models, rpipe.Apps[0].Model)
			}
		}
		s.allowed = make([]uint64, len(s.pool.X))
		for i, x := range s.pool.X {
			for _, m := range s.models {
				c, err := m.InferQ(x)
				if err != nil || c < 0 || c > 63 {
					return nil, fmt.Errorf("fixture %s: reference InferQ on vector %d: class %d, %v", f.Endpoint, i, c, err)
				}
				s.allowed[i] |= 1 << uint(c)
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// classOK reports whether class is a correct answer for pool vector i.
func (s *served) classOK(i, class int) bool {
	return class >= 0 && class < 64 && s.allowed[i]&(1<<uint(class)) != 0
}

// classifyDigest pins the reference classes of the whole pool; every
// served answer is checked against them, so it is also the digest of
// what was served.
func classifyDigest(ss []*served) string {
	h := sha256.New()
	for _, s := range ss {
		for _, a := range s.allowed {
			fmt.Fprintf(h, "%x,", a)
		}
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fixtureGolden(n *node, ss []*served) goldenDoc {
	g := goldenDoc{ClassifyDigest: classifyDigest(ss)}
	for _, s := range ss {
		for _, rev := range s.ep.Revisions() {
			q := 0.0
			if j, ok := n.svc.Job(rev.JobID); ok {
				if pipe, err := j.Result(); err == nil && len(pipe.Apps) > 0 {
					q = pipe.Apps[0].Metric
				}
			}
			g.Jobs = append(g.Jobs, goldenJob{
				Shape:   fmt.Sprintf("%s#%d", s.fix.Endpoint, rev.ID),
				Quality: roundQuality(q), Digest: artifactDigest(n.svc, rev.JobID),
			})
		}
	}
	return g
}

// tally counts served answers against the traffic's ground-truth labels
// (supervised endpoints only): the serve workloads' model_quality.
type tally struct{ hits, total int }

// ---- serve_http_single, serve_http_batch ----

type httpRun struct {
	batch int
	pool  traffic
	// bodies[k] carries pool vectors k*batch .. (k+1)*batch-1.
	bodies [][]byte

	node    *node
	served  []*served
	clients []*client
	tallies []tally
}

func newHTTPRun(seed int64, batch, requests int) (*httpRun, error) {
	r := &httpRun{batch: batch}
	var err error
	if r.pool, err = genTraffic(dnnFixture().Spec.Models[0].Data, batch*requests, seed); err != nil {
		return nil, err
	}
	for k := 0; k < requests; k++ {
		r.bodies = append(r.bodies, classifyBody(r.pool.X[k*batch:(k+1)*batch]))
	}
	return r, nil
}

func (r *httpRun) inputHash() string {
	var ih inputHasher
	ih.addTraffic(r.pool)
	ih.add(r.bodies...)
	return ih.sum()
}

func (r *httpRun) setup() error {
	dir, err := newStateDir()
	if err != nil {
		return err
	}
	if r.node, err = boot(dir, homunculus.ServiceOptions{}); err != nil {
		return err
	}
	if r.served, err = serveFixtures(r.node, []fixture{dnnFixture()}, []traffic{r.pool}); err != nil {
		return err
	}
	r.clients = nil
	for c := 0; c < nproc(); c++ {
		r.clients = append(r.clients, newClient(r.node.base))
	}
	r.tallies = make([]tally, len(r.clients))
	warm := loop{clients: len(r.clients), d: time.Hour, limit: 256}.run(r.op)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed", warm.failed, warm.attempted)
	}
	runtime.GC()
	return nil
}

// op sends request i of client c and checks every returned class
// against the reference.
func (r *httpRun) op(c, i int) bool {
	// Clients start a pool's length apart so they do not send the same
	// body at the same time.
	k := (i + c*len(r.bodies)/len(r.clients)) % len(r.bodies)
	var resp httpapi.ClassifyResponse
	code, err := r.clients[c].post("/v1/endpoints/dnn/classify", r.bodies[k], &resp)
	if err != nil || code != http.StatusOK || resp.Dropped != 0 || len(resp.Classes) != r.batch {
		return false
	}
	s, t := r.served[0], &r.tallies[c]
	ok := true
	for v, class := range resp.Classes {
		idx := k*r.batch + v
		if !s.classOK(idx, class) {
			ok = false
		}
		if class == r.pool.Y[idx] {
			t.hits++
		}
	}
	t.total += r.batch
	return ok
}

func (r *httpRun) run(d time.Duration, tr *tracer) phase {
	r.tallies = make([]tally, len(r.clients))
	return tracedLoop(loop{clients: len(r.clients), d: d}, tr, "op.request", r.op)
}

// tracedLoop runs a serve loop, recording one span per op when tr is
// set: each client into a buffer of its own.
func tracedLoop(l loop, tr *tracer, name string, op opFunc) phase {
	if tr == nil {
		return l.run(op)
	}
	bufs := make([]*clientSpans, l.clients)
	for c := range bufs {
		bufs[c] = tr.client()
	}
	ph := l.run(func(c, i int) bool {
		t0 := time.Now()
		ok := op(c, i)
		bufs[c].add(name, i*l.clients+c, t0, time.Now())
		return ok
	})
	tr.absorb(bufs)
	return ph
}

func sumTallies(ts []tally) float64 {
	var hits, total int
	for _, t := range ts {
		hits, total = hits+t.hits, total+t.total
	}
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

func (r *httpRun) quality() float64  { return sumTallies(r.tallies) }
func (r *httpRun) golden() goldenDoc { return fixtureGolden(r.node, r.served) }

func (r *httpRun) teardown() error {
	for _, c := range r.clients {
		c.close()
	}
	return r.node.destroy()
}

// ---- serve_inproc ----

// inprocBlock is how many Classify calls one timed op makes.
const inprocBlock = 256

// inprocPool is the number of distinct vectors per endpoint.
const inprocPool = 1024

type inprocRun struct {
	fixtures []fixture
	pools    []traffic

	node    *node
	served  []*served
	tallies []tally
}

func newInprocRun(seed int64) (*inprocRun, error) {
	r := &inprocRun{fixtures: inprocFixtures()}
	for lane, f := range r.fixtures {
		pool, err := genTraffic(f.Spec.Models[0].Data, inprocPool, seed+int64(lane))
		if err != nil {
			return nil, err
		}
		r.pools = append(r.pools, pool)
	}
	return r, nil
}

func (r *inprocRun) inputHash() string {
	var ih inputHasher
	for _, p := range r.pools {
		ih.addTraffic(p)
	}
	return ih.sum()
}

func (r *inprocRun) setup() error {
	dir, err := newStateDir()
	if err != nil {
		return err
	}
	if r.node, err = boot(dir, homunculus.ServiceOptions{}); err != nil {
		return err
	}
	if r.served, err = serveFixtures(r.node, r.fixtures, r.pools); err != nil {
		return err
	}
	r.tallies = make([]tally, nproc())
	warm := loop{clients: nproc(), d: time.Hour, limit: 64}.run(r.block)
	if warm.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d blocks failed", warm.failed, warm.attempted)
	}
	runtime.GC()
	return nil
}

// block makes inprocBlock calls round-robin over the endpoints, walking
// each endpoint's pool; it is correct when every class is.
func (r *inprocRun) block(c, i int) bool {
	t := &r.tallies[c]
	ok := true
	per := inprocBlock / len(r.served)
	base := (i*per + c*inprocPool/len(r.tallies)) % inprocPool
	for k := 0; k < inprocBlock; k++ {
		s := r.served[k%len(r.served)]
		idx := (base + k/len(r.served)) % inprocPool
		class, err := s.ep.Classify(s.pool.X[idx])
		if err != nil || !s.classOK(idx, class) {
			ok = false
		}
		if s.fix.Supervised {
			if class == s.pool.Y[idx] {
				t.hits++
			}
			t.total++
		}
	}
	return ok
}

func (r *inprocRun) run(d time.Duration, tr *tracer) phase {
	r.tallies = make([]tally, nproc())
	return tracedLoop(loop{clients: nproc(), d: d}, tr, "op.block", r.block)
}

func (r *inprocRun) quality() float64  { return sumTallies(r.tallies) }
func (r *inprocRun) golden() goldenDoc { return fixtureGolden(r.node, r.served) }
func (r *inprocRun) teardown() error   { return r.node.destroy() }
