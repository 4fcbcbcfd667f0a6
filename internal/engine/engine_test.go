package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestExecuteRunsStepsInOrder(t *testing.T) {
	var p Plan
	var got []string
	p.Add(StepSetup, "open", func(ctx context.Context, x *Exec) error {
		got = append(got, "open")
		return nil
	})
	p.Add(StepTreeDiff, "diff", func(ctx context.Context, x *Exec) error {
		got = append(got, "diff")
		x.Charge(metrics.PhaseCompareTree, 3*time.Millisecond)
		return nil
	})
	p.Add(StepReport, "report", func(ctx context.Context, x *Exec) error {
		got = append(got, "report")
		return nil
	})

	rep, err := Execute(context.Background(), &p)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if strings.Join(got, ",") != "open,diff,report" {
		t.Fatalf("order = %v", got)
	}
	if len(rep.Steps) != 3 {
		t.Fatalf("Steps = %d, want 3", len(rep.Steps))
	}
	sp, ok := rep.Steps.Get("diff")
	if !ok || sp.Virtual != 3*time.Millisecond {
		t.Fatalf("diff span = %v ok=%v, want virtual 3ms", sp, ok)
	}
	if rep.Steps.Total().Virtual != 3*time.Millisecond {
		t.Fatalf("Total virtual = %v", rep.Steps.Total().Virtual)
	}
	// The one charge also lands on its phase.
	if got := rep.Breakdown.Get(metrics.PhaseCompareTree).Virtual; got != 3*time.Millisecond || rep.Breakdown.Total().Virtual != got {
		t.Fatalf("breakdown = %v, want 3ms of compare-tree alone", &rep.Breakdown)
	}
}

func TestExecuteStepErrorUnwrappedAndRecorded(t *testing.T) {
	sentinel := errors.New("boom")
	var p Plan
	p.Add(StepSetup, "a", func(ctx context.Context, x *Exec) error { return nil })
	p.Add(StepTreeDiff, "b", func(ctx context.Context, x *Exec) error { return sentinel })
	ran := false
	p.Add(StepReport, "c", func(ctx context.Context, x *Exec) error { ran = true; return nil })

	rep, err := Execute(context.Background(), &p)
	if err != sentinel {
		t.Fatalf("err = %v, want the unwrapped sentinel", err)
	}
	if ran {
		t.Fatal("step after failure ran")
	}
	// The failed step's timing is still recorded, last.
	if len(rep.Steps) != 2 || rep.Steps[1].Label != "b" {
		t.Fatalf("Steps = %v, want a then the failed b", rep.Steps)
	}
}

func TestExecuteCleanupsLIFOOnEveryPath(t *testing.T) {
	cases := []struct {
		name string
		fail bool
	}{
		{"success", false},
		{"error", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var order []string
			var p Plan
			p.Add(StepSetup, "s1", func(ctx context.Context, x *Exec) error {
				x.Defer(func() { order = append(order, "c1") })
				x.Defer(func() { order = append(order, "c2") })
				return nil
			})
			p.Add(StepStreamVerify, "s2", func(ctx context.Context, x *Exec) error {
				x.Defer(func() { order = append(order, "c3") })
				if tc.fail {
					return errors.New("fail")
				}
				return nil
			})
			_, err := Execute(context.Background(), &p)
			if tc.fail && err == nil {
				t.Fatal("want error")
			}
			if !tc.fail && err != nil {
				t.Fatalf("Execute: %v", err)
			}
			if strings.Join(order, ",") != "c3,c2,c1" {
				t.Fatalf("cleanup order = %v, want LIFO c3,c2,c1", order)
			}
		})
	}
}

func TestExecuteCanceledBeforeStep(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var p Plan
	cleaned := false
	p.Add(StepSetup, "s1", func(ctx context.Context, x *Exec) error {
		x.Defer(func() { cleaned = true })
		cancel() // cancels before the next step boundary
		return nil
	})
	p.Add(StepStreamVerify, "s2", func(ctx context.Context, x *Exec) error {
		t.Fatal("step ran after cancel")
		return nil
	})
	rep, err := Execute(ctx, &p)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The preempted step never ran, so it has no span.
	if len(rep.Steps) != 1 || rep.Steps[0].Label != "s1" {
		t.Fatalf("Steps = %v, want s1 alone", rep.Steps)
	}
	if !cleaned {
		t.Fatal("cleanup did not run on the cancellation path")
	}
}

func TestCloseOnExit(t *testing.T) {
	var p Plan
	c := &countCloser{}
	p.Add(StepSetup, "s", func(ctx context.Context, x *Exec) error {
		x.CloseOnExit(c)
		x.CloseOnExit(nil) // nil closer is a no-op
		return nil
	})
	if _, err := Execute(context.Background(), &p); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if c.n != 1 {
		t.Fatalf("Close called %d times, want 1", c.n)
	}
}

type countCloser struct{ n int }

func (c *countCloser) Close() error { c.n++; return nil }
