// Package retry is the single home for error classification and
// retry/backoff policy in this repository: the two retry loops (the
// engine's steps, aio's read ladder) both consult a Policy.
//
// Two properties distinguish it from a generic retry helper:
//
//   - Classification is explicit. An error is retried only if something on
//     its chain opted in via Mark (or implements RetryClass). Unclassified
//     errors default to Permanent, so injected test faults and logic bugs
//     propagate exactly as before retry existed.
//
//   - Backoff is virtual. Policy never sleeps on the wall clock; it returns
//     the deterministic backoff duration it *would* have waited, and the
//     caller accounts it in simclock virtual time. Runs are bit-identical
//     across machines.
package retry

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Class partitions errors by how the degradation ladder should respond.
type Class int

const (
	// Permanent errors are never retried; they propagate to the caller
	// (or, one rung up the ladder, degrade the affected pair).
	Permanent Class = iota
	// Transient errors (PFS hiccups, ring pressure) are retried under the
	// governing Policy.
	Transient
	// Corrupt errors mean bytes were read successfully but failed an
	// integrity check. They earn exactly one re-read, never backoff:
	// the storage call succeeded, so waiting longer cannot help.
	Corrupt
)

// String returns the lower-case class name used in reports and logs.
func (c Class) String() string {
	switch c {
	case Transient:
		return "transient"
	case Corrupt:
		return "corrupt"
	default:
		return "permanent"
	}
}

// Classer is implemented by errors that carry their own retry class.
type Classer interface {
	RetryClass() Class
}

type classed struct {
	err   error
	class Class
}

func (e *classed) Error() string     { return e.class.String() + ": " + e.err.Error() }
func (e *classed) Unwrap() error     { return e.err }
func (e *classed) RetryClass() Class { return e.class }

// Mark wraps err with an explicit retry class. Marking nil returns nil.
func Mark(err error, c Class) error {
	if err == nil {
		return nil
	}
	return &classed{err: err, class: c}
}

// Classify reports the retry class of err. Context cancellation and
// deadline expiry are Permanent regardless of wrapping: the caller is
// leaving, so retrying on its behalf is never correct. Otherwise the first
// Classer on the chain wins, and unclassified errors are Permanent.
func Classify(err error) Class {
	if err == nil {
		return Permanent
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return Permanent
	}
	var c Classer
	if errors.As(err, &c) {
		return c.RetryClass()
	}
	return Permanent
}

// IsTransient reports whether err classifies as Transient.
func IsTransient(err error) bool { return Classify(err) == Transient }

// IsCorrupt reports whether err classifies as Corrupt.
func IsCorrupt(err error) bool { return Classify(err) == Corrupt }

// exhausted demotes a Transient error to Permanent once its retry budget is
// spent, so an outer policy (e.g. the engine's per-step retry) does not
// multiply attempts against an inner one.
type exhausted struct {
	err      error
	attempts int
}

func (e *exhausted) Error() string {
	return fmt.Sprintf("retry exhausted after %d attempts: %v", e.attempts, e.err)
}
func (e *exhausted) Unwrap() error     { return e.err }
func (e *exhausted) RetryClass() Class { return Permanent }

// Exhausted wraps err as Permanent, recording how many attempts were made.
func Exhausted(err error, attempts int) error {
	if err == nil {
		return nil
	}
	return &exhausted{err: err, attempts: attempts}
}

// Policy is a capped exponential backoff with deterministic jitter. The
// zero value disables retries (single attempt, no backoff).
type Policy struct {
	// MaxAttempts is the total attempt budget including the first try.
	// Values <= 1 mean "no retries".
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. Zero means uncapped.
	MaxDelay time.Duration
	// Multiplier scales the delay between consecutive retries.
	// Values < 1 are treated as 2.
	Multiplier float64
	// Seed keys the deterministic jitter stream. Two policies with the
	// same parameters and seed produce identical backoff sequences.
	Seed uint64
}

// Default is the policy applied by compare.Options when none is set:
// three attempts with 2ms → 8ms virtual backoff, jitter seeded by the
// policy parameters alone.
func Default() Policy {
	return Policy{MaxAttempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Multiplier: 4}
}

// Enabled reports whether the policy allows at least one retry.
func (p Policy) Enabled() bool { return p.MaxAttempts > 1 }

// splitmix64 is the same tiny deterministic PRNG used by internal/synth.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Next returns the virtual backoff to charge before retry number `retry`
// (1-based: the backoff between attempt N and attempt N+1 is Next(N)), and
// whether the attempt budget allows that retry at all. The jitter is a
// deterministic ±25% drawn from splitmix64(Seed, retry), so a given
// (policy, seed) pair prices identically on every run and machine.
func (p Policy) Next(retry int) (time.Duration, bool) {
	if retry < 1 || retry >= p.MaxAttempts {
		return 0, false
	}
	d := float64(p.BaseDelay)
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	for i := 1; i < retry; i++ {
		d *= mult
		if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	// ±25% jitter in 1/1024 steps: factor in [0.75, 1.25).
	r := splitmix64(p.Seed ^ uint64(retry)*0x9e3779b97f4a7c15)
	factor := 0.75 + float64(r%1024)/2048
	return time.Duration(d * factor), true
}

// Do runs fn up to MaxAttempts times, retrying only errors that classify
// Transient. It returns the total *virtual* backoff accrued (the caller
// charges it to simclock; Do itself never sleeps) and the final error.
// Corrupt and Permanent errors return immediately. When the budget is
// spent on a still-Transient error, the error is wrapped with Exhausted so
// outer policies see it as Permanent. Do stops early if ctx is done.
func (p Policy) Do(ctx context.Context, fn func(attempt int) error) (time.Duration, error) {
	var backoff time.Duration
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return backoff, err
		}
		err := fn(attempt)
		if err == nil || Classify(err) != Transient {
			return backoff, err
		}
		d, ok := p.Next(attempt + 1)
		if !ok {
			return backoff, Exhausted(err, attempt+1)
		}
		backoff += d
	}
}
