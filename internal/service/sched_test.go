package service

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/retry"
)

// testPlane builds an owned plane with a tight scheduler for admission
// tests; nothing is executed, so Close never blocks.
func testPlane(t *testing.T, cfg Config) *Plane {
	t.Helper()
	p := New(cfg)
	t.Cleanup(func() {
		if err := p.Close(); err != nil {
			t.Errorf("plane close: %v", err)
		}
	})
	return p
}

// wantPrice recomputes the deterministic backpressure price the plane's
// scheduler must attach to a rejection at the given pressure.
func wantPrice(pressure int) time.Duration {
	price := retry.Policy{
		MaxAttempts: pressureCap + 1,
		BaseDelay:   retryAfterBase,
		MaxDelay:    retryAfterMax,
		Multiplier:  2,
	}
	if pressure > pressureCap {
		pressure = pressureCap
	}
	d, _ := price.Next(pressure)
	return d
}

func TestAdmissionTenantQuotaDeterministic(t *testing.T) {
	cfg := Config{MaxInFlight: 4, MaxQueued: 4, TenantPending: 1}
	p := testPlane(t, cfg)
	tn := p.tenantState("a")

	first, err := p.sched.reserve(tn)
	if err != nil {
		t.Fatal(err)
	}

	// Quota spent: the rejection is priced, and the price is a pure
	// function of the pressure — two identical rejections agree exactly.
	var prices [2]time.Duration
	for i := range prices {
		_, err := p.sched.reserve(tn)
		var adm *AdmissionError
		if !errors.As(err, &adm) {
			t.Fatalf("over-quota reserve %d: got %v, want *AdmissionError", i, err)
		}
		if adm.Tenant != "a" || adm.Pressure != 1 {
			t.Fatalf("admission error: %+v", adm)
		}
		prices[i] = adm.RetryAfter
	}
	if prices[0] != prices[1] {
		t.Fatalf("rejection price not deterministic: %v vs %v", prices[0], prices[1])
	}
	if want := wantPrice(1); prices[0] != want || want <= 0 {
		t.Fatalf("rejection price %v, want %v (> 0)", prices[0], want)
	}

	// Another tenant is unaffected by tenant a's quota.
	other, err := p.sched.reserve(p.tenantState("b"))
	if err != nil {
		t.Fatalf("tenant b rejected by tenant a's quota: %v", err)
	}
	p.sched.release(other)
	p.sched.release(first)

	// Released quota admits again.
	again, err := p.sched.reserve(tn)
	if err != nil {
		t.Fatalf("post-release reserve: %v", err)
	}
	p.sched.release(again)
}

func TestAdmissionQueueFullPricedByDepth(t *testing.T) {
	cfg := Config{MaxInFlight: 1, MaxQueued: 2, TenantPending: 8}
	p := testPlane(t, cfg)
	tn := p.tenantState("a")

	running, err := p.sched.reserve(tn)
	if err != nil {
		t.Fatal(err)
	}
	var queued []*ticket
	for i := 0; i < 2; i++ {
		q, err := p.sched.reserve(tn)
		if err != nil {
			t.Fatalf("queueing reserve %d: %v", i, err)
		}
		queued = append(queued, q)
	}

	// Queue full: rejected with the queue depth as pressure.
	_, err = p.sched.reserve(tn)
	var adm *AdmissionError
	if !errors.As(err, &adm) {
		t.Fatalf("queue-full reserve: got %v, want *AdmissionError", err)
	}
	if adm.Pressure != 3 {
		t.Fatalf("queue-full pressure %d, want 3", adm.Pressure)
	}
	if want := wantPrice(3); adm.RetryAfter != want {
		t.Fatalf("queue-full price %v, want %v", adm.RetryAfter, want)
	}
	// Deeper pressure prices strictly higher (within the cap), so
	// backpressure actually escalates.
	if !(wantPrice(3) > wantPrice(1)) {
		t.Fatalf("price does not escalate: p3=%v p1=%v", wantPrice(3), wantPrice(1))
	}

	// FIFO handoff: releasing the running ticket grants the head of the
	// queue, in order.
	ctx := context.Background()
	p.sched.release(running)
	if err := p.sched.wait(ctx, queued[0]); err != nil {
		t.Fatalf("first queued ticket: %v", err)
	}
	p.sched.release(queued[0])
	if err := p.sched.wait(ctx, queued[1]); err != nil {
		t.Fatalf("second queued ticket: %v", err)
	}
	p.sched.release(queued[1])
}

func TestAdmissionWaitCancel(t *testing.T) {
	p := testPlane(t, Config{MaxInFlight: 1, MaxQueued: 4, TenantPending: 4})
	tn := p.tenantState("a")
	running, err := p.sched.reserve(tn)
	if err != nil {
		t.Fatal(err)
	}
	q, err := p.sched.reserve(tn)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.sched.wait(ctx, q); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled wait: %v", err)
	}
	// The withdrawn ticket released its pending count: the tenant can
	// fill the queue again.
	q2, err := p.sched.reserve(tn)
	if err != nil {
		t.Fatalf("reserve after withdrawal: %v", err)
	}
	p.sched.release(running)
	if err := p.sched.wait(context.Background(), q2); err != nil {
		t.Fatal(err)
	}
	p.sched.release(q2)
}

func TestPlaneClosedRejectsEverything(t *testing.T) {
	p := New(Config{MaxInFlight: 1, TenantPending: 4})
	tn := p.tenantState("a")
	q, err := p.sched.reserve(tn) // grant
	if err != nil {
		t.Fatal(err)
	}
	queued, err := p.sched.reserve(tn) // queued behind it
	if err != nil {
		t.Fatal(err)
	}

	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()

	// Close rejects the queued ticket with ErrPlaneClosed...
	if err := p.sched.wait(context.Background(), queued); !errors.Is(err, ErrPlaneClosed) {
		t.Fatalf("queued ticket after close: %v", err)
	}
	// ...and waits for the in-flight ticket to release.
	p.sched.release(q)
	if err := <-closed; err != nil {
		t.Fatalf("close: %v", err)
	}

	if _, err := p.sched.reserve(tn); !errors.Is(err, ErrPlaneClosed) {
		t.Fatalf("reserve on closed plane: %v", err)
	}
	// Idempotent.
	if err := p.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestAdmissionErrorIsTransient(t *testing.T) {
	adm := &AdmissionError{Tenant: "a", Reason: "r", Pressure: 2, RetryAfter: time.Millisecond}
	if adm.RetryClass() != retry.Transient {
		t.Fatalf("admission errors must classify Transient for retry.Do")
	}
	if adm.Error() == "" {
		t.Fatal("empty error text")
	}
}
