package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for a
// root). Times are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how untraced runs share the traced runs' code.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(),
	})
	return id
}

// reserve allocates a span whose interval is filled in by finish — for a
// parent that must exist before its children are recorded.
func (t *tracer) reserve(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, op, t.t0, t.t0)
}

func (t *tracer) finish(id int, start, end time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Start = start.Sub(t.t0).Nanoseconds()
	t.spans[id-1].End = end.Sub(t.t0).Nanoseconds()
}

// clientSpans is one client's private span buffer for the serve loops,
// which finish tens of thousands of ops a second: appending to it takes
// no lock, and it has room for a whole traced phase, so recording a span
// costs two clock reads and a store — a lock and a growing slice there
// cost a third of a 38 us request.
type clientSpans struct {
	t0    time.Time
	spans []span
}

func (t *tracer) client() *clientSpans {
	return &clientSpans{t0: t.t0, spans: make([]span, 0, sampleRoom)}
}

// add records a root span of op.
func (c *clientSpans) add(name string, op int, start, end time.Time) {
	c.spans = append(c.spans, span{Op: op, Name: name, Start: start.Sub(c.t0).Nanoseconds(), End: end.Sub(c.t0).Nanoseconds()})
}

// absorb moves the clients' spans into the tracer, numbering them.
func (t *tracer) absorb(clients []*clientSpans) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range clients {
		for _, s := range c.spans {
			s.ID = len(t.spans) + 1
			t.spans = append(t.spans, s)
		}
	}
}

// maxSpansWritten caps the span file: a serve workload records one span
// per request, and the ledger is computed from memory, not from the file.
const maxSpansWritten = 50000

// write stores the spans as bench/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	t.mu.Lock()
	spans := t.spans
	t.mu.Unlock()
	doc := struct {
		Workload  string `json:"workload"`
		Recorded  int    `json:"spans_recorded"`
		Truncated bool   `json:"truncated"`
		Spans     []span `json:"spans"`
	}{Workload: workload, Recorded: len(spans), Spans: spans}
	if len(spans) > maxSpansWritten {
		doc.Spans, doc.Truncated = spans[:maxSpansWritten], true
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, raw, 0o644)
}

// A span's self time is its duration minus what its children cover.

// covered is the length of the union of the children's intervals inside
// [lo, hi]: children may overlap (parallel work) and are clipped to the
// parent.
func covered(lo, hi int64, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.End, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, r := range iv {
		if r[1] <= end {
			continue
		}
		total += r[1] - max(r[0], end)
		end = r[1]
	}
	return total
}
