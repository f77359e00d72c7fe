package main

// The metric tables: the single source for what a run prints, what
// BENCHMARK.json lists (-manifest renders it from here) and what the
// tests compare the two against.

import (
	"encoding/json"
	"strings"
)

// e2eMetric is one end-to-end metric: something a user of the system
// sees. bound is the share of the parent's median by which it may get
// worse before a change counts as a regression.
type e2eMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Every workload prints every end-to-end metric. An "op" is what the
// workload's user waits for: a job (POST → terminal SSE event → GET) on
// compile_*, an HTTP classify request on serve_http_*, one
// Endpoint.Classify call on serve_inproc.
var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"op_tail_us", "us", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"model_quality", "score", "higher", 0.15},
}

// layerMetric is one per-layer metric of the traced run. on lists the
// workloads whose path crosses the layer; everywhere else the metric
// reads 0, which is the bypass prediction made visible. moves says which
// end-to-end metric the layer should move, and where (README only: the
// contract fixes BENCHMARK.json's keys).
type layerMetric struct {
	name   string
	unit   string
	better string
	on     string // space-separated workload names, "*" for all
	moves  string
}

const (
	onCold    = "compile_cold"
	onCompile = "compile_cold compile_warm"
	onHTTP    = "serve_http_single serve_http_batch"
	onServe   = "serve_http_single serve_http_batch serve_inproc"
	onInproc  = "serve_inproc"

	movesSearch = "homunculus.stage_search_ms → op_p50_us, op_tail_us, throughput_per_s on compile_cold (≤ its share of ~97%); no change on compile_warm and serve_*"
	movesWarm   = "op_p50_us, throughput_per_s on compile_warm (all of its op); ≤3% of compile_cold"
)

var layerMetrics = []layerMetric{
	// Compile ledger: medians per job over in-process Submit calls whose
	// WithProgress callback timestamps stage and candidate events.
	{"homunculus.submit_us", "us", "lower", onCompile, movesWarm},
	{"homunculus.queue_wait_us", "us", "lower", onCold, "submit return → first stage event (queue wait, spec hash, store miss); " + movesWarm},
	{"homunculus.stage_load_ms", "ms", "lower", onCold, "≤1% of compile_cold"},
	{"homunculus.stage_search_ms", "ms", "lower", onCold, "op_p50_us, op_tail_us, throughput_per_s on compile_cold (≥90% of a job); 0 on compile_warm"},
	{"homunculus.stage_compose_ms", "ms", "lower", onCold, "two-model jobs only; <1% of compile_cold"},
	{"homunculus.stage_codegen_ms", "ms", "lower", onCold, "<1% of compile_cold"},
	{"homunculus.stage_validate_ms", "ms", "lower", onCold, "~1-3% of compile_cold; absent from compile_warm (the verdict rides the artifact)"},
	{"homunculus.job_residual_ms", "ms", "lower", onCompile, "wall − submit − queue wait − stages: artifact write + journal fsync on cold; spec hash + artifact read + decode + journal fsync on warm, where it is the whole job"},
	{"core.search_ms.dnn", "ms", "lower", onCold, movesSearch},
	{"core.search_ms.svm", "ms", "lower", onCold, movesSearch},
	{"core.search_ms.kmeans", "ms", "lower", onCold, movesSearch},
	{"core.search_ms.dtree", "ms", "lower", onCold, movesSearch},
	{"core.evals_per_job", "count", "lower", onCold, "falling while model_quality holds is a legitimate saving on compile_cold"},
	{"core.feasible_share", "ratio", "higher", onCold, "useful outcomes ÷ attempts of the BO search"},
	{"core.pruned_families", "count", "higher", onCold, "families skipped before search (tofino prunes dnn)"},

	// Direct calls on fixed inputs.
	{"alchemy.platform_decode_us", "us", "lower", onCompile, movesWarm},
	{"loaders.load_ms", "ms", "lower", onCold, "homunculus.stage_load_ms"},
	{"alchemy.data_fingerprint_ms", "ms", "lower", onCold, "anonymous loaders only; catalog names hash by name"},
	{"homunculus.spec_hash_us", "us", "lower", onCompile, movesWarm},
	{"nn.train_ms", "ms", "lower", onCold, movesSearch},
	{"svm.train_ms", "ms", "lower", onCold, movesSearch},
	{"kmeans.train_ms", "ms", "lower", onCold, movesSearch},
	{"dtree.train_ms", "ms", "lower", onCold, movesSearch},
	{"tensor.matmul_us", "us", "lower", onCold, "nn.train_ms → " + movesSearch},
	{"rf.train_us", "us", "lower", onCold, "bo.overhead_ms → " + movesSearch},
	{"rf.predictvar_ns", "ns", "lower", onCold, "bo.overhead_ms → " + movesSearch},
	{"bo.overhead_ms", "ms", "lower", onCold, "surrogate fits + acquisition with a free objective; " + movesSearch},
	{"backend.estimate_us.taurus", "us", "lower", onCold, movesSearch + " (one call per BO evaluation)"},
	{"backend.estimate_us.tofino", "us", "lower", onCold, movesSearch + " (one call per BO evaluation)"},
	{"backend.estimate_us.fpga", "us", "lower", onCold, movesSearch + " (one call per BO evaluation)"},
	{"backend.codegen_us.taurus", "us", "lower", onCold, "homunculus.stage_codegen_ms"},
	{"backend.codegen_us.tofino", "us", "lower", onCold, "homunculus.stage_codegen_ms"},
	{"backend.codegen_us.fpga", "us", "lower", onCold, "homunculus.stage_codegen_ms"},
	{"backend.codegen_bytes", "bytes", "lower", onCold, "size of the generated code; rides the artifact"},
	{"validate.check_ms", "ms", "lower", onCold, "homunculus.stage_validate_ms"},
	{"homunculus.marshal_us", "us", "lower", onCold, "homunculus.job_residual_ms on compile_cold (write)"},
	{"homunculus.unmarshal_us", "us", "lower", "compile_warm", movesWarm + " (read)"},
	{"homunculus.artifact_bytes", "bytes", "lower", onCompile, "store.put_us, store.get_us, homunculus.unmarshal_us"},
	{"store.put_us", "us", "lower", onCold, "homunculus.job_residual_ms on compile_cold; not on compile_warm"},
	{"store.get_us", "us", "lower", "compile_warm", movesWarm + "; not on compile_cold"},
	{"store.journal_append_us", "us", "lower", onCompile, movesWarm},
	{"store.journal_sync_us", "us", "lower", onCompile, movesWarm + " (one fsync per finished job)"},
	{"store.open_replay_ms", "ms", "lower", "compile_warm", "setup_s on compile_warm (the reopen)"},
	{"jobqueue.submit_ns", "ns", "lower", onCompile, movesWarm},
	{"cluster.fetch_us", "us", "lower", onCold, "what a peer cache hit pays instead of a search; no single-node workload crosses it"},

	// Serve ledger: the same vectors through each nesting level, one
	// client. The self.* rows are per request of the workload's own shape
	// and sum to the wire time.
	{"ir.inferq_ns", "ns", "lower", onServe, "the reference the served classes are checked against; not on the request path"},
	{"ir.predict_ns.dnn", "ns", "lower", onServe, "self.predict_ns"},
	{"ir.predict_ns.dtree", "ns", "lower", onInproc, "self.predict_ns on serve_inproc"},
	{"ir.predict_ns.svm", "ns", "lower", onInproc, "self.predict_ns on serve_inproc"},
	{"ir.predict_ns.kmeans", "ns", "lower", onInproc, "self.predict_ns on serve_inproc"},
	{"serve.runtime_classify_ns", "ns", "lower", onServe, "self.ring_ns"},
	{"serve.runtime_batch_ns_per_vec", "ns", "lower", "serve_http_batch", "self.ring_ns on serve_http_batch"},
	{"serve.endpoint_classify_ns.plain", "ns", "lower", onServe, "self.routing_ns"},
	{"serve.endpoint_classify_ns.canary", "ns", "lower", onInproc, "self.routing_ns on serve_inproc"},
	{"serve.endpoint_classify_ns.shadow", "ns", "lower", onInproc, "self.routing_ns on serve_inproc"},
	{"homunculus.endpoint_classify_ns", "ns", "lower", onServe, "op_p50_us on serve_inproc"},
	{"httpapi.handler_single_us", "us", "lower", "serve_http_single", "self.httpapi_us"},
	{"httpapi.handler_batch_us", "us", "lower", "serve_http_batch", "self.httpapi_us"},
	{"httpapi.wire_single_us", "us", "lower", "serve_http_single", "op_p50_us on serve_http_single"},
	{"httpapi.wire_batch_us", "us", "lower", "serve_http_batch", "op_p50_us on serve_http_batch"},
	{"httpapi.json_decode_us", "us", "lower", onHTTP, "op_p50_us, throughput_per_s on serve_http_batch (most of a vector's cost)"},
	{"httpapi.json_encode_us", "us", "lower", onHTTP, "self.httpapi_us"},
	{"self.nethttp_us", "us", "lower", onHTTP, "op_p50_us, throughput_per_s on serve_http_single (most of a request); 0 on serve_inproc"},
	{"self.httpapi_us", "us", "lower", onHTTP, "op_p50_us, throughput_per_s on serve_http_single and serve_http_batch; 0 on serve_inproc"},
	{"self.routing_ns", "ns", "lower", onServe, "op_p50_us, throughput_per_s on serve_inproc"},
	{"self.ring_ns", "ns", "lower", onServe, "op_p50_us, throughput_per_s on serve_inproc; ~30% of serve_http_batch; <3% of serve_http_single"},
	{"self.predict_ns", "ns", "lower", onServe, "op_p50_us, throughput_per_s on serve_inproc; ~30% of serve_http_batch; <3% of serve_http_single"},
	{"serve.mean_batch", "count", "higher", onServe, "how many requests a harvest sweep collects; rises with concurrent load"},
	{"serve.full_flush_share", "ratio", "higher", onServe, "sweeps that filled a batch ÷ sweeps"},
	{"serve.dropped", "count", "lower", onServe, "requests shed by backpressure; a closed loop with nproc clients sheds none"},
	{"serve.p50_ns", "ns", "lower", onServe, "the runtime's own admission→delivery histogram"},
	{"serve.p99_ns", "ns", "lower", onServe, "the runtime's own admission→delivery histogram"},
	{"serve.shadow_divergences", "count", "lower", onInproc, "mirrored requests the shadow classified differently"},
	{"http.requests", "count", "lower", "compile_cold compile_warm serve_http_single serve_http_batch", "HTTP requests the traced phase issued; 0 on serve_inproc"},

	// Per workload.
	{"proc.allocs_per_op", "count", "lower", "*", "cpu_ms_per_op, op_tail_us (GC)"},
	{"proc.bytes_per_op", "bytes", "lower", "*", "cpu_ms_per_op, peak_rss_mb"},
	{"proc.gc_cycles", "count", "lower", "*", "op_tail_us"},
	{"proc.gc_pause_ms", "ms", "lower", "*", "op_tail_us"},
	{"trace.overhead_pct", "%", "lower", "*", "traced vs untraced op time in the same process; the cost of recording spans"},
}

func (m layerMetric) onPath(workload string) bool {
	if m.on == "*" {
		return true
	}
	for _, w := range strings.Fields(m.on) {
		if w == workload {
			return true
		}
	}
	return false
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures.
const runSeconds = 10

// manifest renders BENCHMARK.json from the tables above.
func manifest() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []e2eMetric `json:"end_to_end"`
		PerLayer   []layer     `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   e2eMetrics,
	}
	for _, d := range workloadDefs {
		doc.Workloads = append(doc.Workloads, wl{d.name, d.why})
	}
	for _, m := range layerMetrics {
		doc.PerLayer = append(doc.PerLayer, layer{m.name, m.unit, m.better})
	}
	raw, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(raw, '\n')
}
