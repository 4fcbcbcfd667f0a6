package device

import "sync/atomic"

// Cancelable wraps an Executor so loops dispatched through it observe a
// cancellation signal: once Done closes, remaining iterations are skipped
// (each claimed iteration still counts toward completion, so the Pool's
// fin channel closes normally and no goroutine leaks). The signal is a
// bare channel rather than a context.Context so no context ends up stored
// in a struct; it is typically a context's Done() channel.
//
// Cancellation is best-effort and cheap: the wrapper polls Done once every
// cancelPollMask+1 iterations, so a canceled loop stops within a bounded
// number of kernel-body invocations without paying a channel select per
// element.
type Cancelable struct {
	// Done signals cancellation when closed (nil never cancels).
	Done <-chan struct{}
	// Inner runs the loop (nil selects Default()).
	Inner Executor
}

var (
	_ Executor = Cancelable{}
	_ Coarse   = Cancelable{}
)

// cancelPollMask makes the wrapper poll the Done channel every 64
// iterations: frequent enough that kernels stop promptly, rare enough
// that the select cost disappears against any real kernel body.
const cancelPollMask = 63

// Workers returns the inner executor's parallelism.
func (c Cancelable) Workers() int {
	if c.Inner == nil {
		return Default().Workers()
	}
	return c.Inner.Workers()
}

// For dispatches the loop through the inner executor, skipping the tail
// of the iteration space once Done closes. All iterations still complete
// from the executor's point of view, so For always returns.
func (c Cancelable) For(n int, fn func(i int)) {
	inner := c.Inner
	if inner == nil {
		inner = Default()
	}
	if c.Done == nil {
		inner.For(n, fn)
		return
	}
	select {
	case <-c.Done:
		return
	default:
	}
	var canceled atomic.Bool
	var polls atomic.Int64
	inner.For(n, func(i int) {
		if canceled.Load() {
			return
		}
		if polls.Add(1)&cancelPollMask == 0 {
			select {
			case <-c.Done:
				canceled.Store(true)
				return
			default:
			}
		}
		fn(i)
	})
}

// ForCoarse implements Coarse: the heavy-item dispatch of the inner
// executor with Done polled before every item — a few dozen items never
// reach For's 64-iteration poll interval, and one select is free against
// an item that runs for microseconds.
func (c Cancelable) ForCoarse(n int, fn func(i int)) {
	inner := c.Inner
	if inner == nil {
		inner = Default()
	}
	if c.Done == nil {
		ForCoarse(inner, n, fn)
		return
	}
	done := c.Done
	ForCoarse(inner, n, func(i int) {
		select {
		case <-done:
			return
		default:
		}
		fn(i)
	})
}
