package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a traced op: a public call into a layer
// (recorded by the benchmark around the call) or an engine step
// synthesised from Result.Steps. Spans of one op share Op; Parent is the
// ID of the span that caused this one (-1 for the op's root span).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced windows pay one nil check per call site.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID (-1 when tracing is off).
func (t *tracer) begin(name, layer string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Op: op, Parent: parent, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// child records a finished span of known duration laid out at offset off
// from its parent's start — how engine steps, which report only their
// duration, become children of the call that ran them.
func (t *tracer) child(name, layer string, parent int, off, d time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	t.mu.Lock()
	p := t.spans[parent]
	id := len(t.spans)
	start := p.Start + int64(off)
	t.spans = append(t.spans, span{ID: id, Name: name, Layer: layer, Op: p.Op, Parent: parent, Start: start, End: start + int64(d)})
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration of every span with the given name.
func durations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns each span's self time, indexed by span ID: its
// duration minus the part of its interval that its direct children cover
// (overlapping children are counted once; a child is clipped to its
// parent).
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := int64(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByLayer sums self time per layer over all spans, in milliseconds.
func selfByLayer(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, d := range selfTimes(spans) {
		out[spans[i].Layer] += ms(d)
	}
	return out
}

// traceFile is the document written to bench/out/trace-<workload>.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Ops         int                `json:"ops"`
	SelfMsLayer map[string]float64 `json:"self_ms_by_layer"`
	Spans       []span             `json:"spans"`
}

func writeTrace(path, workload string, ops int, spans []span) error {
	doc := traceFile{Workload: workload, Ops: ops, SelfMsLayer: selfByLayer(spans), Spans: spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return writeFileAtomic(path, data)
}

// writeFileAtomic writes data beside path and renames it into place, so
// an interrupted run never leaves a half-written file.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
