package main

// The per-layer ledger of a traced run. Everything is measured from the
// benchmark's side of each package boundary — timing calls into public
// functions on the generated inputs — with no instrumentation inside the
// program under test.

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// ledger collects a traced run's per-layer values by metric name.
type ledger struct {
	workload string
	tr       *tracer
	// each is the time one direct-call measurement may take.
	each time.Duration
	vals map[string]float64
	op   int // next op id for ledger spans
}

func newLedger(workload string, tr *tracer, each time.Duration) *ledger {
	return &ledger{workload: workload, tr: tr, each: each, vals: map[string]float64{}, op: 1 << 24}
}

func (lg *ledger) set(name string, v float64) { lg.vals[name] = v }

// unitOf is the duration one unit of a time metric stands for.
func unitOf(unit string) time.Duration {
	switch unit {
	case "ns":
		return time.Nanosecond
	case "us":
		return time.Microsecond
	case "ms":
		return time.Millisecond
	case "s":
		return time.Second
	}
	return 0
}

func layerByName(name string) layerMetric {
	for _, m := range layerMetrics {
		if m.name == name {
			return m
		}
	}
	panic("bench: metric " + name + " is not in the layer table")
}

// setDur stores a duration in the metric's declared unit.
func (lg *ledger) setDur(name string, d time.Duration) {
	lg.set(name, float64(d)/float64(unitOf(layerByName(name).unit)))
}

// timeBatches is how many batches a direct-call measurement is cut into;
// the reported value is the best batch's time per call (the sandbox's
// noise only ever adds time, see stats.go).
const timeBatches = 7

// timeCall measures fn's cost per call and stores it under the row name.
func (lg *ledger) timeCall(name string, fn func()) time.Duration {
	d := lg.measure(name, fn)
	lg.setDur(name, d)
	return d
}

// measure returns fn's cost per call: one calibrating call sizes the
// batches so that all of them fit lg.each, then the least over the
// batches of (batch time ÷ calls) is taken. Each batch is a span named
// name in the trace.
func (lg *ledger) measure(name string, fn func()) time.Duration {
	t0 := time.Now()
	fn()
	once := time.Since(t0)
	n := 1
	if once > 0 {
		n = int(lg.each / timeBatches / once)
	}
	n = max(1, min(n, 1<<20))
	best := time.Duration(math.MaxInt64)
	lg.op++
	for b := 0; b < timeBatches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		end := time.Now()
		lg.tr.add(name, 0, lg.op, start, end)
		best = min(best, end.Sub(start)/time.Duration(n))
	}
	return best
}

// values returns every per-layer metric of the table for this workload:
// the measured value where the layer is on the workload's path, 0 where
// the workload bypasses it.
func (lg *ledger) values() map[string]metricValue {
	out := make(map[string]metricValue, len(layerMetrics))
	for _, m := range layerMetrics {
		v := 0.0
		if m.onPath(lg.workload) {
			v = lg.vals[m.name]
		}
		out[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	return out
}

// missing lists on-path metrics the workload's ledger never set — a bug
// in the benchmark, caught by the tests.
func (lg *ledger) missing() []string {
	var out []string
	for _, m := range layerMetrics {
		if _, ok := lg.vals[m.name]; !ok && m.onPath(lg.workload) {
			out = append(out, m.name)
		}
	}
	return out
}

// notPerOp are time rows that are not a cost per op, so a share of the
// op time would mean nothing: a set-up cost and a whole phase's total.
var notPerOp = map[string]bool{"store.open_replay_ms": true, "proc.gc_pause_ms": true}

// print writes the ledger table: every on-path row with its value and,
// for time rows, its share of the end-to-end op_p50_us (opUS, from the
// untraced phase of the same run).
func (lg *ledger) print(w io.Writer, opUS float64) {
	fmt.Fprintf(w, "ledger %s (share = row ÷ the untraced phase's op_p50_us, %.3f us)\n", lg.workload, opUS)
	for _, m := range layerMetrics {
		if !m.onPath(lg.workload) {
			continue
		}
		v := lg.vals[m.name]
		share := ""
		if u := unitOf(m.unit); u > 0 && opUS > 0 && !notPerOp[m.name] {
			share = fmt.Sprintf("%8.2f%%", 100*v*float64(u)/float64(time.Microsecond)/opUS)
		}
		fmt.Fprintf(w, "  %-36s %16.3f %-6s %s\n", m.name, v, m.unit, share)
	}
	var off []string
	for _, m := range layerMetrics {
		if !m.onPath(lg.workload) {
			off = append(off, m.name)
		}
	}
	sort.Strings(off)
	fmt.Fprintf(w, "  bypassed (read 0): %s\n", strings.Join(off, " "))
}
