package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Name: "op", Layer: "bench", Parent: -1, Start: 0, End: 100},
		{ID: 1, Name: "call", Layer: "service", Parent: 0, Start: 10, End: 90},
		// Overlapping children are covered once; one sticks out of its parent.
		{ID: 2, Name: "a", Layer: "engine", Parent: 1, Start: 10, End: 40},
		{ID: 3, Name: "b", Layer: "engine", Parent: 1, Start: 30, End: 60},
		{ID: 4, Name: "c", Layer: "engine", Parent: 1, Start: 80, End: 120},
	}
	want := []time.Duration{
		20,           // op: 100 - call's 80
		80 - 50 - 10, // call: [10,60] and [80,90] are covered
		30, 30, 40,   // leaves keep their whole duration
	}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	byLayer := selfByLayer(spans)
	if byLayer["engine"] != ms(100) || byLayer["service"] != ms(20) || byLayer["bench"] != ms(20) {
		t.Errorf("self time by layer = %v", byLayer)
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", "bench", 0, -1)
	tr.end(id)
	tr.child("step", "engine", id, 0, time.Millisecond)
	if id != -1 || tr.snapshot() != nil {
		t.Fatalf("nil tracer recorded: id %d, spans %v", id, tr.snapshot())
	}
}

func TestTracerChildLayout(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", "bench", 7, -1)
	call := tr.begin("call", "service", 7, root)
	tr.end(call)
	tr.end(root)
	tr.child("s1", "engine", call, 0, 3*time.Microsecond)
	tr.child("s2", "engine", call, 3*time.Microsecond, 2*time.Microsecond)
	spans := tr.snapshot()
	if len(spans) != 4 {
		t.Fatalf("%d spans, want 4", len(spans))
	}
	s1, s2 := spans[2], spans[3]
	if s1.Parent != call || s1.Op != 7 || s1.Start != spans[call].Start || s1.dur() != 3*time.Microsecond {
		t.Errorf("first child laid out wrong: %+v", s1)
	}
	if s2.Start != s1.End || s2.dur() != 2*time.Microsecond {
		t.Errorf("second child does not follow the first: %+v", s2)
	}
	if got := durations(spans, "s2"); len(got) != 1 || got[0] != 2*time.Microsecond {
		t.Errorf("durations(s2) = %v", got)
	}
}
