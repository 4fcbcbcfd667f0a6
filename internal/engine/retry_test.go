package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/retry"
)

func stepRetryPolicy() retry.Policy {
	return retry.Policy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, Multiplier: 2}
}

func TestExecuteRetriesTransientStep(t *testing.T) {
	var p Plan
	p.Retry = stepRetryPolicy()
	runs := 0
	p.Add(StepLoadMetadata, "load", func(ctx context.Context, x *Exec) error {
		runs++
		if runs < 3 {
			return retry.Mark(errors.New("blip"), retry.Transient)
		}
		x.Charge(metrics.PhaseRead, time.Millisecond)
		return nil
	})
	rep, err := Execute(context.Background(), &p)
	if err != nil {
		t.Fatalf("transient step should succeed after retries: %v", err)
	}
	if runs != 3 {
		t.Fatalf("runs=%d, want 3", runs)
	}
	sp, ok := rep.Steps.Get("load")
	if !ok {
		t.Fatal("missing step span")
	}
	// The span carries the successful attempt's work plus both backoffs;
	// the phase carries the work alone.
	b1, _ := p.Retry.Next(1)
	b2, _ := p.Retry.Next(2)
	if want := time.Millisecond + b1 + b2; sp.Virtual != want {
		t.Fatalf("step virtual %v, want the 1ms of work plus backoffs %v and %v", sp.Virtual, b1, b2)
	}
	if got := rep.Breakdown.Total().Virtual; got != time.Millisecond || rep.Breakdown.Get(metrics.PhaseRead).Virtual != got {
		t.Fatalf("breakdown = %v, want the 1ms of read work and no backoff", &rep.Breakdown)
	}
}

func TestExecuteDoesNotRetryPermanent(t *testing.T) {
	var p Plan
	p.Retry = stepRetryPolicy()
	sentinel := errors.New("logic bug")
	runs := 0
	p.Add(StepSetup, "open", func(ctx context.Context, x *Exec) error { runs++; return sentinel })
	rep, err := Execute(context.Background(), &p)
	if !errors.Is(err, sentinel) || runs != 1 {
		t.Fatalf("permanent error retried: runs=%d err=%v", runs, err)
	}
	if len(rep.Steps) != 1 || rep.Steps[0].Span.Virtual != 0 {
		t.Fatalf("steps = %v, want the one failed attempt without backoff", rep.Steps)
	}
}

func TestExecuteExhaustedRetryDemotes(t *testing.T) {
	var p Plan
	p.Retry = stepRetryPolicy()
	base := retry.Mark(errors.New("always flaky"), retry.Transient)
	runs := 0
	p.Add(StepStreamVerify, "verify", func(ctx context.Context, x *Exec) error { runs++; return base })
	_, err := Execute(context.Background(), &p)
	if runs != 3 {
		t.Fatalf("runs = %d, want MaxAttempts=3", runs)
	}
	if retry.Classify(err) != retry.Permanent || !errors.Is(err, base) {
		t.Fatalf("exhausted step error should be Permanent and keep the chain: %v", err)
	}
}

func TestExecuteZeroPolicySingleAttempt(t *testing.T) {
	var p Plan
	runs := 0
	p.Add(StepSetup, "open", func(ctx context.Context, x *Exec) error {
		runs++
		return retry.Mark(errors.New("blip"), retry.Transient)
	})
	if _, err := Execute(context.Background(), &p); err == nil {
		t.Fatal("want error")
	}
	if runs != 1 {
		t.Fatalf("zero policy ran step %d times, want 1", runs)
	}
}
