package metrics

import (
	"strings"
	"testing"
	"time"
)

func TestSpanAdd(t *testing.T) {
	var s Span
	s.Add(Span{Wall: time.Second, Virtual: 2 * time.Second})
	s.AddVirtual(time.Second)
	if s.Wall != time.Second || s.Virtual != 3*time.Second {
		t.Errorf("span = %+v", s)
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhaseSetup:         "Setup time",
		PhaseRead:          "Read time",
		PhaseDeserialize:   "Deserialization time",
		PhaseCompareTree:   "Compare tree time",
		PhaseCompareDirect: "Compare direct time",
	}
	for p, w := range want {
		if p.String() != w {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), w)
		}
	}
	if !strings.Contains(Phase(99).String(), "99") {
		t.Error("unknown phase should include its number")
	}
	if len(Phases()) != 5 {
		t.Errorf("Phases() has %d entries, want 5", len(Phases()))
	}
}

func TestBreakdownAccumulateAndTotal(t *testing.T) {
	var b Breakdown
	b.AddVirtual(PhaseRead, 3*time.Second)
	b.AddVirtual(PhaseCompareDirect, 2*time.Second)
	tot := b.Total()
	if tot.Virtual != 5*time.Second {
		t.Errorf("total virtual = %v", tot.Virtual)
	}
	if got := b.Get(PhaseRead).Virtual; got != 3*time.Second {
		t.Errorf("read virtual = %v", got)
	}
	// Out-of-range phases are ignored, not panics.
	b.AddVirtual(Phase(0), time.Hour)
	b.AddVirtual(Phase(42), time.Hour)
	b.AddVirtual(Phase(-1), time.Hour)
	if b.Total().Virtual != 5*time.Second {
		t.Error("out-of-range phase mutated the breakdown")
	}
	if (b.Get(Phase(0)) != Span{}) {
		t.Error("out-of-range Get should return zero span")
	}
}

func TestBreakdownString(t *testing.T) {
	var b Breakdown
	b.AddVirtual(PhaseRead, 1500*time.Microsecond)
	s := b.String()
	if !strings.Contains(s, "Read time=1.5ms") {
		t.Errorf("String() = %q", s)
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(2e9, time.Second); got != 2.0 {
		t.Errorf("2 GB in 1s = %v GB/s", got)
	}
	if Throughput(100, 0) != 0 {
		t.Error("zero duration should yield 0")
	}
	if Throughput(0, time.Second) != 0 {
		t.Error("zero bytes should yield 0")
	}
}

func TestStopwatchLap(t *testing.T) {
	s := NewStopwatch()
	base := time.Unix(0, 0)
	calls := 0
	s.now = func() time.Time {
		calls++
		return base.Add(time.Duration(calls) * time.Second)
	}
	s.start = base
	if d := s.Lap(); d != time.Second {
		t.Errorf("first lap = %v", d)
	}
	if d := s.Lap(); d != time.Second {
		t.Errorf("second lap = %v", d)
	}
}
