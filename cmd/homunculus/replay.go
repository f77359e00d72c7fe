package main

// The -deploy/-replay mode: serve the compiled pipeline in-process behind
// a named endpoint and drive it with a replayed trace (docs/serving.md),
// optionally rolling out a recompiled revision mid-replay.

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/alchemy"
	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth/botnet"

	homunculus "repro"
)

// replaySettings is the -deploy/-replay/-endpoint flag group: when
// deploy is set, the compiled pipeline is served in-process behind an
// endpoint and driven with a replayed synthetic trace.
type replaySettings struct {
	deploy  bool
	samples int
	clients int
	batch   int
	delay   time.Duration
	shards  int
	queue   int

	// adaptive enables the per-shard arrival-rate predictor on the
	// replay deployment (ServingConfig.AdaptiveFlush): quiet traffic
	// flushes greedily, predicted bursts hold for full batches.
	adaptive bool

	// burst switches the replayer from the closed loop (issue as fast as
	// the deployment admits) to the open-loop burst pacer: offered load
	// arrives at a calibrated mean rate with periodic 100× spikes, so the
	// run reports how the ring scheduler sheds under volumetric bursts.
	burst bool

	// Endpoint lifecycle: serve behind a named endpoint; optionally roll
	// out a recompiled revision mid-replay as a canary or shadow, then
	// promote or roll back before the final replay leg.
	endpoint string
	rollout  bool
	canary   int
	shadow   bool
	promote  bool
	rollback bool
}

// endpointOptions renders the replay knobs as one ServingConfig.
// max_delay_ns is present iff -batch-delay was given, so the default
// stays the greedy flush the byte-identity digests are pinned to and a
// positive -batch-delay holds partial batches up to it.
func (r replaySettings) endpointOptions() homunculus.EndpointOptions {
	cfg := homunculus.ServingConfig{
		Shards:        r.shards,
		BatchSize:     r.batch,
		QueueDepth:    r.queue,
		AdaptiveFlush: r.adaptive,
	}
	if r.delay != 0 {
		delay := int64(r.delay)
		cfg.MaxDelayNS = &delay
	}
	return homunculus.EndpointOptions{Serving: cfg}
}

// replayReport is the outcome of one replay.
type replayReport struct {
	digest      string
	result      serve.ReplayResult
	final       homunculus.ServingStats // merged, post-drain
	endpoint    *homunculus.EndpointStats
	interrupted bool
}

// runReplay serves the compiled pipeline in-process behind a named
// endpoint — "replay" unless -endpoint names it — and drives it with the
// replayed trace. Under -rollout the first half runs on revision 1, then
// the spec is recompiled (seed+1) and rolled out as a canary or shadow,
// the third quarter runs the split, -promote/-rollback fire at the
// three-quarter mark, and the final quarter runs the settled route.
func runReplay(ctx context.Context, cfg config, spec Spec, loader alchemy.DataLoader, platform *alchemy.Platform, pipe *homunculus.Pipeline, search core.SearchConfig) (*replayReport, error) {
	r, w := cfg.replay, cfg.out
	xs, labels, err := buildTrace(spec, loader, r.samples)
	if err != nil {
		return nil, err
	}
	clients := r.clients
	if clients <= 0 {
		clients = runtime.GOMAXPROCS(0)
	}
	svc := homunculus.New(homunculus.ServiceOptions{})
	defer svc.Close()
	ep, err := svc.CreateEndpointPipeline(orDefault(r.endpoint, "replay"), pipe, r.endpointOptions())
	if err != nil {
		return nil, err
	}
	sc := ep.ServingConfig()
	fmt.Fprintf(w, "endpoint %q rev 1: platform=%s algorithm=%s shards=%d batch=%d flush=%s queue=%d clients=%d\n",
		ep.Name(), ep.Platform(), ep.Model().Kind, sc.Shards, sc.BatchSize, describeFlush(sc), sc.QueueDepth, clients)

	record := newRecord(len(xs))
	var agg serve.ReplayResult
	var rate float64 // -burst: the mean offered load, calibrated once for every segment
	segment := func(lo, hi int) error {
		if lo >= hi || ctx.Err() != nil {
			return nil
		}
		var res serve.ReplayResult
		var err error
		if !r.burst {
			res, err = serve.ReplayRun(ctx, ep, xs[lo:hi], labels[lo:hi], clients, record[lo:hi])
		} else {
			if rate == 0 {
				if rate, err = serve.CalibrateRate(ep, xs); err != nil {
					return fmt.Errorf("burst calibration: %w", err)
				}
				fmt.Fprintf(w, "burst: calibrated mean offered load %.0f req/s (spikes at 100×)\n", rate)
			}
			res, err = serve.ReplayBurst(ctx, ep, xs[lo:hi], labels[lo:hi], clients, record[lo:hi], serve.BurstOptions{MeanRate: rate})
		}
		if err != nil {
			return err
		}
		addResult(&agg, res)
		return nil
	}

	n := len(xs)
	if !r.rollout {
		if err := segment(0, n); err != nil {
			return nil, err
		}
	} else {
		if err := segment(0, n/2); err != nil {
			return nil, err
		}
		if ctx.Err() == nil {
			s2 := search
			s2.Seed = search.Seed + 1
			fmt.Fprintf(w, "recompiling for rollout (seed %d)...\n", s2.Seed)
			pipe2, err := homunculus.Generate(ctx, platform, cfg.options(s2, cfg.progress)...)
			if err != nil {
				return nil, fmt.Errorf("rollout compilation: %w", err)
			}
			rev, err := ep.RolloutPipeline(pipe2, homunculus.RolloutOptions{
				CanaryPercent: r.canary,
				Shadow:        r.shadow,
			})
			if err != nil {
				return nil, err
			}
			if r.shadow {
				fmt.Fprintf(w, "rollout: revision %d shadowing all traffic (scored off the record)\n", rev.ID)
			} else {
				fmt.Fprintf(w, "rollout: revision %d serving %d%% canary traffic\n", rev.ID, r.canary)
			}
		}
		if err := segment(n/2, 3*n/4); err != nil {
			return nil, err
		}
		if ctx.Err() == nil {
			switch {
			case r.promote:
				if err := ep.Promote(); err != nil {
					return nil, err
				}
				stable, _, _, _ := ep.View()
				fmt.Fprintf(w, "promoted: revision %d is now stable\n", stable)
			case r.rollback:
				if err := ep.Rollback(); err != nil {
					return nil, err
				}
				stable, _, _, _ := ep.View()
				fmt.Fprintf(w, "rolled back: revision %d keeps all traffic\n", stable)
			}
		}
		if err := segment(3*n/4, n); err != nil {
			return nil, err
		}
	}
	if ctx.Err() != nil {
		fmt.Fprintf(w, "interrupted after %d/%d samples; draining accepted requests\n", agg.Issued, n)
	}
	printReplaySummary(w, agg, ep.Stats().Merged)
	digest := classesDigest(record)
	fmt.Fprintf(w, "classes digest: sha256:%s\n", digest)

	// Delete drains every revision (and flushes pending shadow mirrors),
	// so the final report is the endpoint's complete lifetime.
	final, err := svc.DeleteEndpoint(ep.Name())
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "final: accepted=%d completed=%d dropped=%d errors=%d\n",
		final.Merged.Accepted, final.Merged.Completed, final.Merged.Dropped, final.Merged.Errors)
	fmt.Fprintln(w, "revisions:")
	for _, rev := range final.Revisions {
		fmt.Fprintf(w, "  rev %d [%s] job=%s completed=%d dropped=%d p50=%v p99=%v\n",
			rev.ID, rev.State, orDefault(rev.JobID, "-"), rev.Stats.Completed, rev.Stats.Dropped, rev.Stats.P50, rev.Stats.P99)
	}
	if d := final.Shadow; d != nil {
		fmt.Fprintf(w, "shadow divergence (rev %d): mirrored=%d agree=%d disagree=%d errors=%d shed=%d\n",
			d.Revision, d.Mirrored, d.Agreed, d.Disagreed, d.Errors, d.Shed)
		for p, row := range d.Pairs {
			for s, count := range row {
				if p != s && count > 0 {
					fmt.Fprintf(w, "  primary=%d shadow=%d: %d\n", p, s, count)
				}
			}
		}
	}
	return &replayReport{
		digest: digest, result: agg, final: final.Merged,
		endpoint: &final, interrupted: ctx.Err() != nil,
	}, nil
}

// classesDigest hashes a recorded classification sequence so fixed-seed
// replays can be compared byte-for-byte across serving paths.
func classesDigest(record []int) string {
	h := sha256.New()
	var buf [4]byte
	for _, c := range record {
		binary.LittleEndian.PutUint32(buf[:], uint32(int32(c)))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// addResult folds one replay segment into an aggregate.
func addResult(agg *serve.ReplayResult, res serve.ReplayResult) {
	agg.Requests += res.Requests
	agg.Issued += res.Issued
	agg.Delivered += res.Delivered
	agg.Dropped += res.Dropped
	agg.Errors += res.Errors
	agg.Correct += res.Correct
	agg.Elapsed += res.Elapsed
	if agg.Elapsed > 0 {
		agg.Rate = float64(agg.Delivered) / agg.Elapsed.Seconds()
		if res.OfferedRate > 0 { // burst-paced segments
			agg.OfferedRate = float64(agg.Issued) / agg.Elapsed.Seconds()
		}
	}
	if agg.Delivered > 0 {
		agg.Accuracy = float64(agg.Correct) / float64(agg.Delivered)
	}
}

// newRecord pre-fills a classification record with -2 ("never issued")
// so interrupted replays digest distinctly from shed requests (-1).
func newRecord(n int) []int {
	r := make([]int, n)
	for i := range r {
		r[i] = -2
	}
	return r
}

// printReplaySummary renders the replay aggregate and serving metrics.
func printReplaySummary(w io.Writer, res serve.ReplayResult, st homunculus.ServingStats) {
	fmt.Fprintf(w, "replayed %d samples in %v: %.0f req/s, accuracy %.4f (delivered %d, dropped %d, errors %d)\n",
		res.Requests, res.Elapsed.Round(time.Microsecond), res.Rate, res.Accuracy,
		res.Delivered, res.Dropped, res.Errors)
	if res.OfferedRate > 0 {
		shed := 0.0
		if res.Issued > 0 {
			shed = 100 * float64(res.Dropped) / float64(res.Issued)
		}
		fmt.Fprintf(w, "burst: offered %.0f req/s, shed %.1f%% of offered load\n", res.OfferedRate, shed)
	}
	fmt.Fprintf(w, "latency: p50=%v p99=%v; batches=%d (mean %.1f, %d full, %d deadline)\n",
		st.P50, st.P99, st.Batches, st.MeanBatch, st.FullFlushes, st.DeadlineFlushes)
	fmt.Fprintf(w, "per-class:")
	for c, n := range st.PerClass {
		fmt.Fprintf(w, " %d=%d", c, n)
	}
	fmt.Fprintln(w)
}

// buildTrace assembles the replay trace. The botnet generator replays
// the per-packet partial-flowmarker stream a data plane would actually
// classify (internal/stream.Trace over the regenerated packet corpus);
// every other source replays its test split. n > 0 cycles or truncates
// the trace to exactly n samples.
func buildTrace(spec Spec, loader alchemy.DataLoader, n int) ([][]float64, []int, error) {
	var xs [][]float64
	var labels []int
	if spec.Data.Generator == "botnet" {
		cfg := botnet.DefaultConfig()
		if spec.Data.Samples > 0 {
			cfg.Flows = spec.Data.Samples
		}
		if spec.Data.Seed != 0 {
			cfg.Seed = spec.Data.Seed
		}
		flows, err := botnet.Generate(cfg)
		if err != nil {
			return nil, nil, err
		}
		xs, labels, err = stream.Trace(packet.PaperBD, botnet.MergePackets(flows))
		if err != nil {
			return nil, nil, err
		}
	} else {
		_, test, err := loaderDatasets(loader)
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < test.Len(); i++ {
			xs = append(xs, append([]float64{}, test.X.Row(i)...))
		}
		labels = append(labels, test.Y...)
	}
	if len(xs) == 0 {
		return nil, nil, fmt.Errorf("replay trace is empty")
	}
	if n > 0 {
		cx := make([][]float64, n)
		cl := make([]int, n)
		for i := 0; i < n; i++ {
			cx[i] = xs[i%len(xs)]
			cl[i] = labels[i%len(labels)]
		}
		xs, labels = cx, cl
	}
	return xs, labels, nil
}
