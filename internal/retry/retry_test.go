package retry

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestClassifyDefaultsPermanent(t *testing.T) {
	if got := Classify(errors.New("disk on fire")); got != Permanent {
		t.Fatalf("unclassified error: got %v, want Permanent", got)
	}
	if got := Classify(nil); got != Permanent {
		t.Fatalf("nil error: got %v, want Permanent", got)
	}
}

func TestMarkRoundTrips(t *testing.T) {
	base := errors.New("eio")
	for _, c := range []Class{Transient, Permanent, Corrupt} {
		err := Mark(base, c)
		if got := Classify(err); got != c {
			t.Fatalf("Classify(Mark(err, %v)) = %v", c, got)
		}
		if !errors.Is(err, base) {
			t.Fatalf("Mark(%v) broke the error chain", c)
		}
	}
	if Mark(nil, Transient) != nil {
		t.Fatal("Mark(nil) should be nil")
	}
}

func TestClassifySurvivesWrapping(t *testing.T) {
	err := fmt.Errorf("pfs: read x@0: %w", Mark(errors.New("flaky"), Transient))
	if !IsTransient(err) {
		t.Fatal("fmt.Errorf wrapping should preserve the class")
	}
}

func TestContextErrorsArePermanent(t *testing.T) {
	err := Mark(fmt.Errorf("wrapped: %w", context.Canceled), Transient)
	if Classify(err) != Permanent {
		t.Fatal("context.Canceled must classify Permanent even when marked Transient")
	}
	if Classify(context.DeadlineExceeded) != Permanent {
		t.Fatal("DeadlineExceeded must classify Permanent")
	}
}

func TestExhaustedDemotesToPermanent(t *testing.T) {
	base := Mark(errors.New("flaky"), Transient)
	err := Exhausted(base, 3)
	if Classify(err) != Permanent {
		t.Fatalf("Exhausted error should classify Permanent, got %v", Classify(err))
	}
	if !errors.Is(err, base) {
		t.Fatal("Exhausted broke the error chain")
	}
}

func TestNextSequenceDeterministic(t *testing.T) {
	p := Policy{MaxAttempts: 5, BaseDelay: 2 * time.Millisecond, MaxDelay: 20 * time.Millisecond, Multiplier: 4, Seed: 7}
	var a, b []time.Duration
	for i := 1; i < 6; i++ {
		d, ok := p.Next(i)
		if i < 5 && !ok {
			t.Fatalf("Next(%d) should be allowed", i)
		}
		if i == 5 && ok {
			t.Fatal("Next(5) exceeds MaxAttempts=5 budget")
		}
		a = append(a, d)
	}
	for i := 1; i < 6; i++ {
		d, _ := p.Next(i)
		b = append(b, d)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff not deterministic at retry %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	// Jitter stays within ±25% of the nominal exponential value.
	nominal := []time.Duration{2 * time.Millisecond, 8 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond}
	for i, n := range nominal {
		lo, hi := time.Duration(float64(n)*0.75), time.Duration(float64(n)*1.25)
		if a[i] < lo || a[i] > hi {
			t.Fatalf("retry %d backoff %v outside [%v, %v]", i+1, a[i], lo, hi)
		}
	}
}

func TestZeroPolicyDisablesRetry(t *testing.T) {
	var p Policy
	if p.Enabled() {
		t.Fatal("zero policy should not be Enabled")
	}
	calls := 0
	_, err := p.Do(context.Background(), func(int) error {
		calls++
		return Mark(errors.New("flaky"), Transient)
	})
	if calls != 1 {
		t.Fatalf("zero policy made %d attempts, want 1", calls)
	}
	if Classify(err) != Permanent {
		t.Fatal("spent budget should surface as Permanent (Exhausted)")
	}
}

func TestDoRetriesOnlyTransient(t *testing.T) {
	p := Policy{MaxAttempts: 4, BaseDelay: time.Millisecond, Multiplier: 2}
	calls := 0
	backoff, err := p.Do(context.Background(), func(attempt int) error {
		calls++
		if attempt < 2 {
			return Mark(errors.New("flaky"), Transient)
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("got err=%v calls=%d, want success on attempt 3", err, calls)
	}
	if backoff <= 0 {
		t.Fatal("successful retries must still charge virtual backoff")
	}

	calls = 0
	perm := errors.New("logic bug")
	_, err = p.Do(context.Background(), func(int) error { calls++; return perm })
	if calls != 1 || !errors.Is(err, perm) {
		t.Fatalf("permanent error retried: calls=%d err=%v", calls, err)
	}

	calls = 0
	_, err = p.Do(context.Background(), func(int) error { calls++; return Mark(errors.New("bad bytes"), Corrupt) })
	if calls != 1 || Classify(err) != Corrupt {
		t.Fatalf("corrupt error must not be retried by Do: calls=%d err=%v", calls, err)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	p := Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Multiplier: 2}
	calls := 0
	flaky := Mark(errors.New("flaky"), Transient)
	backoff, err := p.Do(context.Background(), func(int) error { calls++; return flaky })
	if calls != 3 {
		t.Fatalf("made %d attempts, want 3", calls)
	}
	if Classify(err) != Permanent || !errors.Is(err, flaky) {
		t.Fatalf("exhausted error should be Permanent and keep the chain: %v", err)
	}
	d1, _ := p.Next(1)
	d2, _ := p.Next(2)
	if backoff != d1+d2 {
		t.Fatalf("backoff %v, want Next(1)+Next(2) = %v", backoff, d1+d2)
	}
}

func TestDoHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, Multiplier: 2}
	calls := 0
	_, err := p.Do(ctx, func(int) error {
		calls++
		cancel()
		return Mark(errors.New("flaky"), Transient)
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("made %d attempts after cancel, want 1", calls)
	}
}

func TestClassString(t *testing.T) {
	if Transient.String() != "transient" || Permanent.String() != "permanent" || Corrupt.String() != "corrupt" {
		t.Fatal("Class.String mismatch")
	}
}
