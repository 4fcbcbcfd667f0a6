package metrics

import (
	"fmt"
	"strings"
	"time"
)

// StepSpan is the recorded cost of one engine plan node: the step's kind
// and label (the plan key) plus its dual wall/virtual span. Labels are
// unique within one plan, so they key lookups.
type StepSpan struct {
	// Kind is the step-type name ("load-metadata", "stream-verify", ...).
	Kind string `json:"kind"`
	// Label is the plan node's unique label within its plan.
	Label string `json:"label"`
	// Span is the step's measured wall time and accumulated virtual time.
	Span Span `json:"span"`
}

// StepSpans is the per-step timing table of one executed plan, ordered by
// execution order.
type StepSpans []StepSpan

// Add appends one step's timing.
func (s *StepSpans) Add(kind, label string, sp Span) {
	*s = append(*s, StepSpan{Kind: kind, Label: label, Span: sp})
}

// Get returns the span recorded under the given plan-node label.
func (s StepSpans) Get(label string) (Span, bool) {
	for i := range s {
		if s[i].Label == label {
			return s[i].Span, true
		}
	}
	return Span{}, false
}

// Total sums every step's span.
func (s StepSpans) Total() Span {
	var t Span
	for i := range s {
		t.Add(s[i].Span)
	}
	return t
}

// String renders the table compactly, virtual times only.
func (s StepSpans) String() string {
	var sb strings.Builder
	for i := range s {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%s=%v", s[i].Label, s[i].Span.Virtual.Round(time.Microsecond))
	}
	return sb.String()
}
