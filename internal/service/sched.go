package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/retry"
)

// ErrPlaneClosed is returned by every submission path once Plane.Close
// has begun: the plane admits nothing new while draining.
var ErrPlaneClosed = errors.New("service: plane closed")

// AdmissionError is a backpressure rejection: the submission was refused
// without queueing, and the caller should resubmit no sooner than
// RetryAfter. The price is deterministic — an exponential function of
// the pressure that caused the rejection, with the same seeded jitter
// internal/retry uses, expressed on the virtual clock (the scheduler
// never sleeps it). It classifies as Transient so retry loops built on
// internal/retry handle rejections like any other transient fault.
type AdmissionError struct {
	// Tenant is the rejected submission's tenant.
	Tenant string
	// Reason says which bound rejected it ("tenant quota exceeded",
	// "admission queue full").
	Reason string
	// Pressure is the load that priced the rejection: jobs over quota,
	// or the queue length the submission would have grown.
	Pressure int
	// RetryAfter is the virtual backoff before resubmitting.
	RetryAfter time.Duration
}

// Error implements error.
func (e *AdmissionError) Error() string {
	return fmt.Sprintf("service: tenant %q rejected: %s (pressure %d, retry after %v)",
		e.Tenant, e.Reason, e.Pressure, e.RetryAfter)
}

// RetryClass marks rejections Transient for internal/retry.
func (e *AdmissionError) RetryClass() retry.Class { return retry.Transient }

// sched is the plane's admission controller: a counting slot pool of
// MaxInFlight with a bounded FIFO wait queue and per-tenant pending
// quotas. Admission is two-phase — reserve decides synchronously
// (grant, queue, or reject-with-price), wait blocks a queued ticket
// until a slot frees — so callers that must not block (the daemon's
// submit endpoint) get their 429 before any work is spawned.
type sched struct {
	maxInFlight   int
	maxQueued     int
	tenantPending int
	price         retry.Policy

	mu       sync.Mutex
	drained  *sync.Cond // signaled when inflight returns to zero
	closed   bool
	inflight int
	peak     int
	queue    []*ticket
}

// The backpressure price: the RetryAfter attached to a rejection grows
// exponentially with the pressure that caused it, from retryAfterBase up
// to retryAfterMax, with deterministic jitter — virtual durations, never
// slept. pressureCap bounds the exponent so extreme queue lengths
// saturate at retryAfterMax instead of overflowing.
const (
	retryAfterBase = 5 * time.Millisecond
	retryAfterMax  = time.Second
	pressureCap    = 16
)

func newSched(cfg Config) *sched {
	s := &sched{
		maxInFlight:   cfg.MaxInFlight,
		maxQueued:     cfg.MaxQueued,
		tenantPending: cfg.TenantPending,
		price: retry.Policy{
			MaxAttempts: pressureCap + 1,
			BaseDelay:   retryAfterBase,
			MaxDelay:    retryAfterMax,
			Multiplier:  2,
		},
	}
	s.drained = sync.NewCond(&s.mu)
	return s
}

// ticket is one admission: granted immediately (ready already closed)
// or queued (ready closes on grant or rejection; err is set before the
// close and read only after it).
type ticket struct {
	tn       *tenant
	ready    chan struct{}
	err      error
	released bool
}

// granted is the pre-closed channel shared by immediately-granted
// tickets.
var granted = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// retryAfter prices a rejection at the given pressure. Deterministic:
// the same pressure always yields the same virtual duration.
func (s *sched) retryAfter(pressure int) time.Duration {
	if pressure > pressureCap {
		pressure = pressureCap
	}
	if pressure < 1 {
		pressure = 1
	}
	d, _ := s.price.Next(pressure)
	return d
}

// reserve decides admission for one submission by tenant tn: a granted
// or queued ticket, or an immediate error (ErrPlaneClosed, or an
// *AdmissionError carrying the backpressure price). It never blocks.
// Every decision updates the tenant's admission counters (the
// /v1/metrics view): accepted on grant/queue, rejected plus the attached
// backpressure price on a 429.
func (s *sched) reserve(tn *tenant) (*ticket, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrPlaneClosed
	}
	if tn.pending >= s.tenantPending {
		over := tn.pending - s.tenantPending + 1
		return nil, s.rejectWith(tn, "tenant quota exceeded", over)
	}
	if s.inflight < s.maxInFlight && len(s.queue) == 0 {
		tn.pending++
		tn.accepted++
		s.inflight++
		if s.inflight > s.peak {
			s.peak = s.inflight
		}
		return &ticket{tn: tn, ready: granted}, nil
	}
	if len(s.queue) >= s.maxQueued {
		depth := len(s.queue) + 1
		return nil, s.rejectWith(tn, "admission queue full", depth)
	}
	tn.pending++
	tn.accepted++
	t := &ticket{tn: tn, ready: make(chan struct{})}
	s.queue = append(s.queue, t)
	return t, nil
}

// rejectWith prices and counts one backpressure rejection. Caller holds
// s.mu.
func (s *sched) rejectWith(tn *tenant, reason string, pressure int) *AdmissionError {
	after := s.retryAfter(pressure)
	tn.rejected++
	tn.retryAfterTotal += after
	return &AdmissionError{
		Tenant:     tn.id,
		Reason:     reason,
		Pressure:   pressure,
		RetryAfter: after,
	}
}

// wait blocks until the ticket holds an execution slot, the context is
// canceled, or the plane closes. On any error the reservation is
// already undone — the caller must not release.
func (s *sched) wait(ctx context.Context, t *ticket) error {
	select {
	case <-t.ready:
		return t.err
	case <-ctx.Done():
	}
	s.abort(t)
	return ctx.Err()
}

// abort undoes a reservation whose job never ran: a canceled wait, or a
// submission whose accepted record the journal refused. A ticket granted
// meanwhile hands its unused slot to the next waiter; a still-queued one
// withdraws.
func (s *sched) abort(t *ticket) {
	s.mu.Lock()
	select {
	case <-t.ready:
		grantedTicket := t.err == nil
		s.mu.Unlock()
		if grantedTicket {
			s.release(t)
		}
		return
	default:
	}
	for i, q := range s.queue {
		if q == t {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	t.tn.pending--
	s.mu.Unlock()
}

// release returns the ticket's slot: the next queued ticket inherits it
// directly (in-flight count unchanged), otherwise the slot pool grows
// back. Idempotent per ticket.
func (s *sched) release(t *ticket) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.released {
		return
	}
	t.released = true
	t.tn.pending--
	if len(s.queue) > 0 {
		next := s.queue[0]
		s.queue = s.queue[1:]
		close(next.ready)
		return
	}
	s.inflight--
	if s.inflight == 0 {
		s.drained.Broadcast()
	}
}

// close rejects every queued ticket with ErrPlaneClosed, refuses new
// reservations, and blocks until in-flight work drains.
func (s *sched) close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		for _, t := range s.queue {
			t.err = ErrPlaneClosed
			t.tn.pending--
			close(t.ready)
		}
		s.queue = nil
	}
	for s.inflight > 0 {
		s.drained.Wait()
	}
}

// inFlight reports the currently executing admissions.
func (s *sched) inFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// peakInFlight reports the high-water concurrent-execution mark.
func (s *sched) peakInFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}
