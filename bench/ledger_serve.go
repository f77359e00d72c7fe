package main

// The serve ledger: the same vectors pushed through each nesting level
// of the serve path by one client — predictor, runtime ring, endpoint
// routing, root endpoint, HTTP handler, HTTP over loopback — so that the
// difference between two levels is the outer level's self time.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"repro/internal/httpapi"
	"repro/internal/ir"
	"repro/internal/serve"
)

// cycle returns a func handing out pool vectors in order, forever.
func cycle(xs [][]float64) func() []float64 {
	i := 0
	return func() []float64 {
		x := xs[i%len(xs)]
		i++
		return x
	}
}

// predictorCall times one prepared predictor on its endpoint's pool.
func (lg *ledger) predictorCall(s *served) time.Duration {
	m := s.models[0]
	p, err := ir.NewPredictor(m)
	if err != nil {
		return 0
	}
	next := cycle(s.pool.X)
	return lg.timeCall("ir.predict_ns."+m.Kind.String(), func() { _, _ = p.Classify(next()) })
}

// innerCalls times the levels below the root endpoint on the DNN
// fixture, per vector, and returns them for the self-time rows.
func (lg *ledger) innerCalls(s *served) (predict, runtime time.Duration) {
	m := s.models[0]
	next := cycle(s.pool.X)
	lg.timeCall("ir.inferq_ns", func() { _, _ = m.InferQ(next()) })
	predict = lg.predictorCall(s)
	if rt, err := serve.New(m, serve.Options{}); err == nil {
		runtime = lg.timeCall("serve.runtime_classify_ns", func() { _, _ = rt.Classify(next()) })
		_ = rt.Close()
	}
	if ep, err := serve.NewEndpoint("ledger-plain", m, serve.Options{}); err == nil {
		lg.timeCall("serve.endpoint_classify_ns.plain", func() { _, _ = ep.Classify(next()) })
		_ = ep.Close()
	}
	return predict, runtime
}

// counters reads the runtimes' own counters after the traced phase.
func (lg *ledger) counters(ss []*served) {
	var batches, full, dropped, completed, divergences uint64
	var p50, p99 time.Duration
	for _, s := range ss {
		st := s.ep.Stats()
		batches += st.Merged.Batches
		full += st.Merged.FullFlushes
		dropped += st.Merged.Dropped
		completed += st.Merged.Completed
		p50, p99 = max(p50, st.Merged.P50), max(p99, st.Merged.P99)
		if st.Shadow != nil {
			divergences += st.Shadow.Disagreed
		}
	}
	if batches > 0 {
		lg.set("serve.mean_batch", float64(completed)/float64(batches))
		lg.set("serve.full_flush_share", float64(full)/float64(batches))
	}
	lg.set("serve.dropped", float64(dropped))
	lg.set("serve.p50_ns", float64(p50))
	lg.set("serve.p99_ns", float64(p99))
	lg.set("serve.shadow_divergences", float64(divergences))
}

// ledger of serve_http_single and serve_http_batch. The self.* rows are
// per request of the workload's shape (1 or 256 vectors) and telescope:
// nethttp + httpapi + routing + ring + predict == wire.
func (r *httpRun) ledger(lg *ledger) {
	s := r.served[0]
	shape := "single"
	if r.batch > 1 {
		shape = "batch"
	}
	predict, runtime := lg.innerCalls(s)
	next := cycle(s.pool.X)
	root := lg.timeCall("homunculus.endpoint_classify_ns", func() { _, _ = s.ep.Classify(next()) })
	if r.batch > 1 {
		// One request's worth of vectors through the batch entry points.
		xs := s.pool.X[:r.batch]
		if rt, err := serve.New(s.models[0], serve.Options{}); err == nil {
			runtime = lg.measure("serve.runtime_batch", func() { _, _, _ = rt.ClassifyBatch(xs) })
			lg.setDur("serve.runtime_batch_ns_per_vec", runtime/time.Duration(r.batch))
			_ = rt.Close()
		}
		root = lg.measure("homunculus.endpoint_batch", func() { _, _, _ = s.ep.ClassifyBatch(xs) })
		predict *= time.Duration(r.batch)
	}

	body := r.bodies[0]
	handler := httpapi.NewServer(r.node.svc)
	handlerT := lg.timeCall("httpapi.handler_"+shape+"_us", func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/endpoints/dnn/classify", bytes.NewReader(body))
		handler.ServeHTTP(httptest.NewRecorder(), req)
	})
	c := newClient(r.node.base)
	var resp httpapi.ClassifyResponse
	wire := lg.timeCall("httpapi.wire_"+shape+"_us", func() { _, _ = c.post("/v1/endpoints/dnn/classify", body, &resp) })
	c.close()
	var decoded httpapi.ClassifyRequest
	lg.timeCall("httpapi.json_decode_us", func() { _ = json.NewDecoder(bytes.NewReader(body)).Decode(&decoded) })
	reply := httpapi.ClassifyResponse{Classes: make([]int, r.batch)}
	lg.timeCall("httpapi.json_encode_us", func() { _ = json.NewEncoder(io.Discard).Encode(reply) })

	lg.setDur("self.nethttp_us", wire-handlerT)
	lg.setDur("self.httpapi_us", handlerT-root)
	lg.setDur("self.routing_ns", root-runtime)
	lg.setDur("self.ring_ns", runtime-predict)
	lg.setDur("self.predict_ns", predict)
	lg.counters(r.served)
	fmt.Printf("  self times per request: nethttp %.3f + httpapi %.3f + routing %.3f + ring %.3f + predict %.3f = %.3f us (wire %.3f us)\n",
		us(wire-handlerT), us(handlerT-root), us(root-runtime), us(runtime-predict), us(predict),
		us(wire-handlerT)+us(handlerT-root)+us(root-runtime)+us(runtime-predict)+us(predict), us(wire))
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ledger of serve_inproc: every predictor layout, the three routing
// states, and no HTTP row at all.
func (r *inprocRun) ledger(lg *ledger) {
	dnn := r.served[0]
	predict, runtime := lg.innerCalls(dnn)
	for _, s := range r.served[1:] {
		lg.predictorCall(s)
	}
	// The canary and shadow routing states, on serve-level endpoints over
	// the same models the live endpoints hold.
	for _, s := range r.served {
		if s.fix.Rollout == nil {
			continue
		}
		state := "canary"
		if s.fix.Shadow {
			state = "shadow"
		}
		ep, err := serve.NewEndpoint("ledger-"+state, s.models[0], serve.Options{})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: ledger endpoint: %v\n", err)
			continue
		}
		rollout := s.models[len(s.models)-1] // the canary model; for a shadow the stable model mirrors itself
		if _, err := ep.Rollout(rollout, serve.RolloutConfig{CanaryPercent: s.fix.Canary, Shadow: s.fix.Shadow}); err != nil {
			fmt.Fprintf(os.Stderr, "bench: ledger rollout: %v\n", err)
		}
		next := cycle(s.pool.X)
		lg.timeCall("serve.endpoint_classify_ns."+state, func() { _, _ = ep.Classify(next()) })
		_ = ep.Close()
	}
	next := cycle(dnn.pool.X)
	root := lg.timeCall("homunculus.endpoint_classify_ns", func() { _, _ = dnn.ep.Classify(next()) })
	lg.setDur("self.routing_ns", root-runtime)
	lg.setDur("self.ring_ns", runtime-predict)
	lg.setDur("self.predict_ns", predict)
	lg.counters(r.served)
}
