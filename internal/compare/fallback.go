package compare

import (
	"sync"

	"repro/internal/aio"
	"repro/internal/device"
)

// Production traffic reaches this package through internal/service: the
// plane injects its own persistent pool and ring into Options before
// normalization, and the svcown lint rule keeps process-wide resource
// acquisition (aio.Default / device.Default) out of every other package.
// Direct planner calls — tests, benchmarks, tools driving compare.*
// without a plane — may still leave Exec/Backend nil, and get the
// package-private lazy fallbacks below: the same shape as the plane's
// defaults (GOMAXPROCS pool workers; a 256-deep ring with 4 workers, the
// depth the overlap pricing model keys on; the ring's stage-2 buffer
// arena and one coalescer planning in it), so a direct call stays bit-
// and price-identical to a planned one and recycles its buffers the same
// way. They start on first use and live for the process; tests that count
// goroutines warm them up before taking a baseline, exactly as they did
// for the old singletons.
var (
	fallbackOnce     sync.Once
	fallbackPool     *device.Pool
	fallbackRing     *aio.Uring
	fallbackCoalesce aio.Coalescing
)

// ensureFallback lazily builds the fallback resources together so a
// comparison never observes one without the others.
func ensureFallback() {
	fallbackOnce.Do(func() {
		fallbackPool = device.NewPool(0)
		fallbackRing = aio.NewUring(256, 4)
		fallbackCoalesce = aio.NewCoalescing(fallbackRing, 0)
	})
}

// fallbackExec returns the package fallback executor for nil
// Options.Exec.
func fallbackExec() device.Executor {
	ensureFallback()
	return fallbackPool
}

// fallbackBackend returns the package fallback ring for nil
// Options.Backend.
func fallbackBackend() *aio.Uring {
	ensureFallback()
	return fallbackRing
}

// fallbackCoalescing returns the coalescer over the fallback ring.
func fallbackCoalescing() aio.Coalescing {
	ensureFallback()
	return fallbackCoalesce
}
