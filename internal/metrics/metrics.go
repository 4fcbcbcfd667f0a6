// Package metrics provides the comparison-cost breakdown of the paper's
// Fig. 6 (setup, read, deserialization, compare-tree, compare-direct), the
// per-step timing table of an engine plan, and throughput accounting. A
// step's span records both wall-clock time (what actually elapsed in this
// process) and virtual time (what the simclock cost model says the
// operation would cost on the paper's hardware); the breakdown holds
// virtual time; reports always state which one they show.
package metrics

import (
	"fmt"
	"strings"
	"time"
)

// Span is a dual wall/virtual duration, in integer nanoseconds on the wire.
type Span struct {
	Wall    time.Duration `json:"wallNs"`
	Virtual time.Duration `json:"virtualNs"`
}

// Add accumulates another span.
func (s *Span) Add(o Span) {
	s.Wall += o.Wall
	s.Virtual += o.Virtual
}

// AddVirtual accumulates virtual time only.
func (s *Span) AddVirtual(d time.Duration) { s.Virtual += d }

// Phase identifies one part of the comparison process (Fig. 6 legend).
type Phase int

// Breakdown phases, in presentation order.
const (
	PhaseSetup Phase = iota + 1
	PhaseRead
	PhaseDeserialize
	PhaseCompareTree
	PhaseCompareDirect
	numPhases
)

// String returns the paper's legend label for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseSetup:
		return "Setup time"
	case PhaseRead:
		return "Read time"
	case PhaseDeserialize:
		return "Deserialization time"
	case PhaseCompareTree:
		return "Compare tree time"
	case PhaseCompareDirect:
		return "Compare direct time"
	default:
		return fmt.Sprintf("Phase(%d)", int(p))
	}
}

// Phases lists all phases in presentation order.
func Phases() []Phase {
	return []Phase{PhaseSetup, PhaseRead, PhaseDeserialize, PhaseCompareTree, PhaseCompareDirect}
}

// Breakdown accumulates per-phase virtual time for one comparison (its
// spans' wall time stays 0: a comparison's wall time is its steps'). The
// zero value is ready to use. Breakdown is not safe for concurrent use.
type Breakdown struct {
	spans [numPhases]Span
}

// AddVirtual accumulates virtual time into a phase.
func (b *Breakdown) AddVirtual(p Phase, d time.Duration) {
	if p > 0 && p < numPhases {
		b.spans[p].AddVirtual(d)
	}
}

// Get returns the accumulated span for a phase.
func (b *Breakdown) Get(p Phase) Span {
	if p > 0 && p < numPhases {
		return b.spans[p]
	}
	return Span{}
}

// Total returns the sum over all phases.
func (b *Breakdown) Total() Span {
	var t Span
	for _, p := range Phases() {
		t.Add(b.spans[p])
	}
	return t
}

// String renders the virtual-time breakdown compactly.
func (b *Breakdown) String() string {
	var sb strings.Builder
	for i, p := range Phases() {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%v", p, b.Get(p).Virtual.Round(time.Microsecond))
	}
	return sb.String()
}

// Throughput returns bytes/duration in GB/s (decimal GB, as the paper
// reports). A non-positive duration yields 0.
func Throughput(bytes int64, d time.Duration) float64 {
	if d <= 0 || bytes <= 0 {
		return 0
	}
	return float64(bytes) / d.Seconds() / 1e9
}

// Stopwatch measures a wall-clock interval.
type Stopwatch struct {
	start time.Time
	now   func() time.Time
}

// NewStopwatch returns a started stopwatch.
func NewStopwatch() *Stopwatch {
	s := &Stopwatch{now: time.Now}
	s.start = s.now()
	return s
}

// Lap returns the elapsed wall time and restarts the stopwatch.
func (s *Stopwatch) Lap() time.Duration {
	n := s.now()
	d := n.Sub(s.start)
	s.start = n
	return d
}
