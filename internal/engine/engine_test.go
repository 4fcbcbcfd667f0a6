package engine

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

func TestExecuteRunsStepsInOrder(t *testing.T) {
	var p Plan
	var got []string
	setup := p.Add(StepSetup, "open", func(ctx context.Context, x *Exec) error {
		got = append(got, "open")
		return nil
	})
	diff := p.Add(StepTreeDiff, "diff", func(ctx context.Context, x *Exec) error {
		got = append(got, "diff")
		x.AddVirtual(3 * time.Millisecond)
		return nil
	}, setup)
	p.Add(StepReport, "report", func(ctx context.Context, x *Exec) error {
		got = append(got, "report")
		return nil
	}, diff)

	rep, err := Execute(context.Background(), &p)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if strings.Join(got, ",") != "open,diff,report" {
		t.Fatalf("order = %v", got)
	}
	if rep.Failed != "" {
		t.Fatalf("Failed = %q, want empty", rep.Failed)
	}
	if len(rep.Steps) != 3 {
		t.Fatalf("Steps = %d, want 3", len(rep.Steps))
	}
	sp, ok := rep.Steps.Get("diff")
	if !ok || sp.Virtual != 3*time.Millisecond {
		t.Fatalf("diff span = %v ok=%v, want virtual 3ms", sp, ok)
	}
	if rep.Total().Virtual != 3*time.Millisecond {
		t.Fatalf("Total virtual = %v", rep.Total().Virtual)
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
	if rep.Failed != "b" {
		t.Fatalf("Failed = %q, want b", rep.Failed)
	}
	if ran {
		t.Fatal("step after failure ran")
	}
	// The failed step's timing is still recorded.
	if len(rep.Steps) != 2 {
		t.Fatalf("Steps = %d, want 2", len(rep.Steps))
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
	if rep.Failed != "s2" {
		t.Fatalf("Failed = %q, want s2 (the preempted step)", rep.Failed)
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

func TestAddRejectsForwardDeps(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add accepted a forward dependency")
		}
	}()
	var p Plan
	p.Add(StepSetup, "s", func(ctx context.Context, x *Exec) error { return nil }, StepID(0))
}
