package main

// The compile ledger: traced in-process jobs (stage and candidate events
// timestamped through WithProgress, which delivers them synchronously —
// the SSE stream replays them late) and direct calls into the packages a
// compilation crosses.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	homunculus "repro"
	"repro/alchemy"
	"repro/internal/backend"
	"repro/internal/bo"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dtree"
	"repro/internal/httpapi"
	"repro/internal/ir"
	"repro/internal/jobqueue"
	"repro/internal/kmeans"
	"repro/internal/nn"
	"repro/internal/rf"
	"repro/internal/store"
	"repro/internal/svm"
	"repro/internal/tensor"
	"repro/internal/validate"
)

// jobTrace is one in-process job as its progress events show it. Stage
// and family times are the union of the apps' intervals, so a two-model
// job's parallel searches are not counted twice, and
// submit + queueWait + Σ stages + residual == wall exactly.
type jobTrace struct {
	wall, submit, queueWait, residual time.Duration
	stages                            map[homunculus.Stage]time.Duration
	families                          map[string]time.Duration
	evals, feasible, pruned           int
	cacheHit                          bool
	pipe                              *homunculus.Pipeline
}

// traceJob submits spec in-process, waits, and turns the timestamped
// events into spans under one job span.
func traceJob(svc *homunculus.Service, spec jobSpec, tr *tracer, op int) (jobTrace, error) {
	p, opts, err := spec.submission()
	if err != nil {
		return jobTrace{}, err
	}
	type stamped struct {
		at time.Time
		ev homunculus.Event
	}
	var events []stamped // appended under the pipeline's progress lock
	t0 := time.Now()
	job, err := svc.Submit(context.Background(), p, append(opts,
		homunculus.WithProgress(func(ev homunculus.Event) { events = append(events, stamped{time.Now(), ev}) }))...)
	t1 := time.Now()
	if err != nil {
		return jobTrace{}, err
	}
	pipe, err := job.Wait(context.Background())
	t2 := time.Now()
	if err != nil {
		return jobTrace{}, err
	}

	jt := jobTrace{
		wall: t2.Sub(t0), submit: t1.Sub(t0), pipe: pipe, cacheHit: job.Status().CacheHit,
		stages: map[homunculus.Stage]time.Duration{}, families: map[string]time.Duration{},
	}
	iv := func(a, b time.Time) span { return span{Start: a.Sub(t0).Nanoseconds(), End: b.Sub(t0).Nanoseconds()} }
	root := tr.add("homunculus.job", 0, op, t0, t2)
	tr.add("homunculus.submit", root, op, t0, t1)
	children := []span{iv(t0, t1)} // the job span's direct children
	if len(events) > 0 {
		jt.queueWait = events[0].at.Sub(t1)
		tr.add("homunculus.queue_wait", root, op, t1, events[0].at)
		children = append(children, iv(t1, events[0].at))
	}
	// Pair every start event with its done event.
	type unit struct {
		stage          homunculus.Stage
		app, candidate string
	}
	started := map[unit]time.Time{}
	stageSpan := map[unit]int{}
	byStage := map[homunculus.Stage][]span{}
	byFamily := map[string][]span{}
	for _, e := range events {
		u := unit{e.ev.Stage, e.ev.App, e.ev.Candidate}
		if !e.ev.Done {
			started[u] = e.at
			if u.candidate == "" {
				stageSpan[u] = tr.reserve("homunculus.stage_"+string(u.stage), root, op)
			}
			continue
		}
		at, ok := started[u]
		if !ok {
			continue
		}
		if u.candidate == "" {
			tr.finish(stageSpan[u], at, e.at)
			byStage[u.stage] = append(byStage[u.stage], iv(at, e.at))
			children = append(children, iv(at, e.at))
		} else {
			tr.add("core.search."+u.candidate, stageSpan[unit{u.stage, u.app, ""}], op, at, e.at)
			byFamily[u.candidate] = append(byFamily[u.candidate], iv(at, e.at))
		}
	}
	wallNS := jt.wall.Nanoseconds()
	for stage, spans := range byStage {
		jt.stages[stage] = time.Duration(covered(0, wallNS, spans))
	}
	for fam, spans := range byFamily {
		jt.families[fam] = time.Duration(covered(0, wallNS, spans))
	}
	// The residual is the job span's self time: what no child covers.
	jt.residual = jt.wall - time.Duration(covered(0, wallNS, children))
	for _, app := range pipe.Apps {
		for _, c := range app.Candidates {
			if c.Skipped != "" {
				jt.pruned++
				continue
			}
			jt.evals += len(c.BO.History)
			for _, ev := range c.BO.History {
				if ev.Feasible {
					jt.feasible++
				}
			}
		}
	}
	return jt, nil
}

// medianDur is the median of ds in the metric's unit, stored under name;
// an empty ds stores 0.
func (lg *ledger) medianDur(name string, ds []time.Duration) {
	vs := make([]float64, len(ds))
	for i, d := range ds {
		vs[i] = float64(d)
	}
	lg.setDur(name, time.Duration(median(vs)))
}

// jobRows reduces traced jobs to the compile ledger's per-job medians. A
// stage's or family's median is over the jobs that ran it.
func (lg *ledger) jobRows(jobs []jobTrace) {
	var submit, wait, residual []time.Duration
	stages := map[homunculus.Stage][]time.Duration{}
	families := map[string][]time.Duration{}
	var evals, feasibleShare, pruned []float64
	for _, jt := range jobs {
		submit, wait, residual = append(submit, jt.submit), append(wait, jt.queueWait), append(residual, jt.residual)
		for s, d := range jt.stages {
			stages[s] = append(stages[s], d)
		}
		for f, d := range jt.families {
			if d > 0 {
				families[f] = append(families[f], d)
			}
		}
		evals, pruned = append(evals, float64(jt.evals)), append(pruned, float64(jt.pruned))
		if jt.evals > 0 {
			feasibleShare = append(feasibleShare, float64(jt.feasible)/float64(jt.evals))
		}
	}
	lg.medianDur("homunculus.submit_us", submit)
	lg.medianDur("homunculus.job_residual_ms", residual)
	if lg.workload != onCold {
		return
	}
	lg.medianDur("homunculus.queue_wait_us", wait)
	for _, s := range []homunculus.Stage{homunculus.StageLoad, homunculus.StageSearch, homunculus.StageCompose, homunculus.StageCodegen, homunculus.StageValidate} {
		lg.medianDur("homunculus.stage_"+string(s)+"_ms", stages[s])
	}
	for _, f := range ir.KindNames() {
		lg.medianDur("core.search_ms."+f, families[f])
	}
	lg.set("core.evals_per_job", median(evals))
	lg.set("core.feasible_share", median(feasibleShare))
	lg.set("core.pruned_families", median(pruned))
}

// printJobs writes each traced job's account — the parts sum to the wall
// — and the share of all the jobs' time that was search.
func printJobs(specs []jobSpec, jobs []jobTrace) {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	var wall, searched time.Duration
	for i, jt := range jobs {
		search := jt.stages[homunculus.StageSearch]
		wall, searched = wall+jt.wall, searched+search
		fmt.Printf("  job %-14s wall %9.3f ms = submit %.3f + queue_wait %.3f + load %.3f + search %.3f + compose %.3f + codegen %.3f + validate %.3f + residual %.3f  (search %.1f%% of wall, hit=%v)\n",
			specs[i].Shape, ms(jt.wall), ms(jt.submit), ms(jt.queueWait), ms(jt.stages[homunculus.StageLoad]), ms(search),
			ms(jt.stages[homunculus.StageCompose]), ms(jt.stages[homunculus.StageCodegen]), ms(jt.stages[homunculus.StageValidate]),
			ms(jt.residual), 100*float64(search)/float64(jt.wall), jt.cacheHit)
	}
	if wall > 0 {
		fmt.Printf("  %d traced jobs: %.3f ms in all, %.3f ms of it search (%.1f%%)\n", len(jobs), ms(wall), ms(searched), 100*float64(searched)/float64(wall))
	}
}

// ledger of compile_cold: one traced round of fresh specs, then direct
// calls on that round's data and models.
func (r *coldRun) ledger(lg *ledger) {
	round := r.flat[r.next : r.next+r.roundLen]
	r.next += len(round)
	var jobs []jobTrace
	byShape := map[string]*homunculus.Pipeline{}
	for i, spec := range round {
		jt, err := traceJob(r.node.svc, spec, lg.tr, lg.op+i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: traced job %s: %v\n", spec.Shape, err)
			continue
		}
		jobs = append(jobs, jt)
		byShape[spec.Shape] = jt.pipe
	}
	lg.op += len(round)
	printJobs(round, jobs)
	lg.jobRows(jobs)

	var spec jobSpec
	for _, s := range round {
		if s.Shape == "nslkdd/taurus" {
			spec = s
		}
	}
	lg.specCalls(spec)
	data, err := spec.Models[0].Data.loader().Load()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: ledger data: %v\n", err)
		return
	}
	lg.timeCall("loaders.load_ms", func() { _, _ = spec.Models[0].Data.loader().Load() })
	lg.timeCall("alchemy.data_fingerprint_ms", func() { _, _ = alchemy.DataFingerprint(data) })
	train, _, err := data.Datasets()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: ledger datasets: %v\n", err)
		return
	}
	lg.trainerCalls(train)
	lg.searchCalls()
	for _, kind := range targets {
		if pipe := byShape["nslkdd/"+kind]; pipe != nil && pipe.Apps[0].Model != nil {
			lg.backendCalls(kind, pipe.Apps[0].Model)
		}
	}
	pipe := byShape["nslkdd/taurus"]
	if pipe == nil || pipe.Apps[0].Model == nil {
		return
	}
	m := pipe.Apps[0].Model
	lg.timeCall("validate.check_ms", func() {
		if evals, err := validate.Evaluators(m); err == nil {
			validate.Check(evals, validate.Traffic(m, 1, 256))
		}
	})
	raw, _ := homunculus.MarshalPipeline(pipe)
	lg.set("homunculus.artifact_bytes", float64(len(raw)))
	lg.timeCall("homunculus.marshal_us", func() { _, _ = homunculus.MarshalPipeline(pipe) })
	lg.storeCalls(raw, true)
	lg.set("backend.codegen_bytes", float64(len(pipe.Apps[0].Code)))
	lg.clusterFetch(r.node.svc, artifactKey(r.node.svc))
}

// artifactKey is the spec hash of a finished job: an artifact the
// service's store holds.
func artifactKey(svc *homunculus.Service) string {
	for _, j := range svc.Jobs() {
		if st := j.Status(); st.State == homunculus.JobDone && st.SpecHash != "" {
			return st.SpecHash
		}
	}
	return ""
}

// ledger of compile_warm: traced in-process resubmissions (cache hits:
// no stage runs, so the residual is the whole job) and the read side of
// the store.
func (r *warmRun) ledger(lg *ledger) {
	var jobs []jobTrace
	var specs []jobSpec
	for i := 0; i < 36; i++ {
		spec := r.specs[r.order[i%len(r.order)]]
		jt, err := traceJob(r.node.svc, spec, lg.tr, lg.op+i)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: traced job %s: %v\n", spec.Shape, err)
			continue
		}
		jobs, specs = append(jobs, jt), append(specs, spec)
	}
	lg.op += 36
	printJobs(specs[:min(len(specs), 3)], jobs[:min(len(jobs), 3)])
	lg.jobRows(jobs)
	lg.specCalls(r.specs[0])
	if len(jobs) == 0 {
		return
	}
	raw, _ := homunculus.MarshalPipeline(jobs[0].pipe)
	lg.set("homunculus.artifact_bytes", float64(len(raw)))
	lg.timeCall("homunculus.unmarshal_us", func() { _, _ = homunculus.UnmarshalPipeline(raw) })
	lg.storeCalls(raw, false)
}

// specCalls times what every submission does with its spec document.
func (lg *ledger) specCalls(spec jobSpec) {
	p, _, err := spec.submission()
	if err != nil {
		return
	}
	platformDoc, err := alchemy.MarshalPlatform(p)
	if err != nil {
		return
	}
	lg.timeCall("alchemy.platform_decode_us", func() { _, _ = alchemy.UnmarshalPlatform(platformDoc) })
	cfg := core.DefaultSearchConfig()
	lg.timeCall("homunculus.spec_hash_us", func() { _, _ = homunculus.SpecHash(p, cfg, homunculus.WithValidation()) })
	q := jobqueue.New(1, -1)
	lg.timeCall("jobqueue.submit_ns", func() { _, _ = q.Submit(func() {}, nil) })
	q.Close()
}

// trainerCalls times one training run of each model family at a fixed
// mid-space configuration and the default epoch budget.
func (lg *ledger) trainerCalls(train *dataset.Dataset) {
	features, classes := train.Features(), train.Classes()
	epochs := core.DefaultSearchConfig().TrainEpochs
	lg.timeCall("nn.train_ms", func() {
		net, err := nn.New(nn.Config{
			Inputs: features, Hidden: []int{12, 6}, Outputs: classes, Activation: nn.ReLU,
			Optimizer: nn.Adam, LearnRate: 0.01, BatchSize: 32, Epochs: epochs, Seed: 1,
		})
		if err == nil {
			_, _ = net.Train(train)
		}
	})
	lg.timeCall("svm.train_ms", func() {
		_, _ = svm.Train(svm.Config{Features: features, Classes: classes, LearnRate: 0.05, Lambda: 1e-3, Epochs: epochs, Seed: 1}, train)
	})
	lg.timeCall("kmeans.train_ms", func() { _, _ = kmeans.Train(kmeans.Config{K: 4, MaxIters: 50, Seed: 1}, train) })
	lg.timeCall("dtree.train_ms", func() { _, _ = dtree.Train(dtree.Config{MaxDepth: 6, MinLeaf: 4, Classes: classes}, train) })
	rng := rand.New(rand.NewSource(1))
	a, b, dst := tensor.New(32, 24), tensor.New(24, 24), tensor.New(32, 24)
	a.RandInit(rng, 1)
	b.RandInit(rng, 1)
	lg.timeCall("tensor.matmul_us", func() { tensor.MatMul(dst, a, b) })
}

// searchCalls times the optimizer around the trainers: a surrogate fit
// and query at the history size a default search reaches, and a whole
// default-budget BO run over a free objective.
func (lg *ledger) searchCalls() {
	rng := rand.New(rand.NewSource(1))
	cfg := core.DefaultSearchConfig().BO
	n := cfg.InitSamples + cfg.Iterations
	xs, ys := make([][]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		ys[i] = xs[i][0]*2 - xs[i][1]
	}
	var forest *rf.Forest
	lg.timeCall("rf.train_us", func() { forest, _ = rf.Train(cfg.Forest, xs, ys) })
	if forest != nil {
		lg.timeCall("rf.predictvar_ns", func() { forest.PredictVar(xs[0]) })
	}
	space := bo.Space{Params: []bo.Param{
		{Name: "x", Kind: bo.Real, Min: -5, Max: 5},
		{Name: "y", Kind: bo.Real, Min: -5, Max: 5},
	}}
	lg.timeCall("bo.overhead_ms", func() {
		_, _ = bo.Maximize(context.Background(), space, cfg, func(x []float64) (float64, bool, map[string]float64, error) {
			return -(x[0]*x[0] + x[1]*x[1]), true, nil, nil
		})
	})
}

func (lg *ledger) backendCalls(kind string, m *ir.Model) {
	target, err := backend.Build(backend.Spec{Kind: kind})
	if err != nil {
		return
	}
	lg.timeCall("backend.estimate_us."+kind, func() { _, _ = target.Estimate(m) })
	lg.timeCall("backend.codegen_us."+kind, func() { _, _ = target.Generate(m) })
}

// storeCalls times the state directory's operations on a scratch store
// beside the service's own: the write side (artifact put) for cold, the
// read side (artifact get, journal replay at open) for warm, and the
// journal append with and without fsync for both.
func (lg *ledger) storeCalls(artifact []byte, cold bool) {
	dir, err := newStateDir()
	if err != nil {
		return
	}
	defer os.RemoveAll(dir)
	st, _, _, err := store.Open(dir, nil)
	if err != nil {
		return
	}
	sum := sha256.Sum256(artifact)
	key := hex.EncodeToString(sum[:])
	if cold {
		lg.timeCall("store.put_us", func() { _ = st.Artifacts.Put(key, artifact) })
	} else {
		_ = st.Artifacts.Put(key, artifact)
		lg.timeCall("store.get_us", func() { _, _ = st.Artifacts.Get(key) })
	}
	rec := store.Record{Op: store.OpDone, Job: "job-000001", SpecHash: key}
	lg.timeCall("store.journal_append_us", func() { _ = st.Journal.Append(rec, false) })
	lg.timeCall("store.journal_sync_us", func() { _ = st.Journal.Append(rec, true) })
	_ = st.Close()
	if !cold {
		lg.timeCall("store.open_replay_ms", func() {
			if s, _, _, err := store.Open(dir, nil); err == nil {
				_ = s.Close()
			}
		})
	}
}

// clusterFetch times Fabric.Fetch of one artifact from a second
// in-process node over loopback: the service under test answers as the
// origin, a fresh in-memory service is the fetching peer.
func (lg *ledger) clusterFetch(origin *homunculus.Service, hash string) {
	lg.set("cluster.fetch_us", 0)
	if hash == "" {
		return
	}
	quiet := func(string, ...any) {}
	fabA, err := cluster.New(origin, cluster.Config{SelfAddr: "http://origin", StealInterval: -1, Logf: quiet})
	if err != nil {
		return
	}
	defer fabA.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return
	}
	srv := &http.Server{Handler: httpapi.NewServerWith(origin, fabA.Options())}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-done
	}()
	peer := homunculus.New(homunculus.ServiceOptions{})
	defer peer.Close()
	fabB, err := cluster.New(peer, cluster.Config{SelfAddr: "http://peer", Peers: []string{"http://" + ln.Addr().String()}, StealInterval: -1, Logf: quiet})
	if err != nil {
		return
	}
	defer fabB.Close()
	if _, ok := fabB.Fetch(context.Background(), hash); !ok {
		fmt.Fprintln(os.Stderr, "bench: cluster fetch missed")
		return
	}
	lg.timeCall("cluster.fetch_us", func() { fabB.Fetch(context.Background(), hash) })
}
