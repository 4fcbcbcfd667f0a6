package device

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a persistent worker-pool Executor, the "GPU" backend: workers
// are started once at construction and reused across every For call, so
// tree levels and compare batches pay no goroutine spawn per kernel.
// Iterations are handed out in contiguous chunks through an atomic cursor
// (chunked dynamic scheduling), which keeps memory access coalesced while
// letting fast workers steal the tail of slow ones.
//
// The submitting goroutine always participates in the loop, so For makes
// progress even when every pooled worker is busy with other tasks — which
// also makes nested For calls (a field-level loop whose body runs a
// chunk-level loop) deadlock-free. A Pool is safe for concurrent use;
// Close releases the workers and must not race with For.
type Pool struct {
	workers int
	tasks   chan *poolTask
	wg      sync.WaitGroup
	closed  sync.Once
}

var _ Executor = (*Pool)(nil)

// grainDivisor controls dynamic-scheduling granularity: each For is split
// into about 8 chunks per worker, balancing steal-ability against cursor
// contention.
const grainDivisor = 8

// poolSerialCutoff is the loop size below which For runs inline: waking
// workers costs more than a few dozen iterations of any kernel this
// repo dispatches.
const poolSerialCutoff = 32

// NewPool starts a persistent pool with the given worker count
// (workers <= 0 selects GOMAXPROCS). Call Close to release the workers
// when the pool is no longer needed; the process-wide Default pool is
// never closed.
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		workers: workers,
		tasks:   make(chan *poolTask, workers*2),
	}
	// The submitter participates in every task, so N-1 pooled helpers
	// give N-way parallelism.
	p.wg.Add(workers - 1)
	for i := 0; i < workers-1; i++ {
		// Joined by Pool.Close via p.wg.
		go p.worker()
	}
	return p
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for t := range p.tasks {
		t.run()
	}
}

// Workers returns the pool's degree of parallelism.
func (p *Pool) Workers() int { return p.workers }

// Close stops the workers and waits for them to exit. For must not be
// called during or after Close.
func (p *Pool) Close() {
	p.closed.Do(func() {
		close(p.tasks)
		p.wg.Wait()
	})
}

// poolTask is one For loop in flight: an atomic claim cursor, a
// completion counter, and the iteration body.
type poolTask struct {
	fn    func(int)
	n     int64
	grain int64
	next  atomic.Int64 // next unclaimed iteration
	done  atomic.Int64 // completed iterations
	fin   chan struct{}
}

// run claims chunks until the cursor is exhausted. Whichever participant
// completes the final iteration closes fin; claimed-but-running chunks on
// other participants are what the submitter's fin wait covers.
func (t *poolTask) run() {
	for {
		start := t.next.Add(t.grain) - t.grain
		if start >= t.n {
			return
		}
		end := start + t.grain
		if end > t.n {
			end = t.n
		}
		for i := start; i < end; i++ {
			t.fn(int(i))
		}
		if t.done.Add(end-start) == t.n {
			close(t.fin)
		}
	}
}

// For invokes fn(0..n-1) across the pool, returning when all iterations
// complete.
func (p *Pool) For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if p.workers == 1 || n <= poolSerialCutoff {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	grain := int64(n) / int64(p.workers*grainDivisor)
	if grain < 1 {
		grain = 1
	}
	p.dispatch(n, grain, fn)
}

// ForCoarse implements Coarse: one claim per item and no small-loop
// inlining, for loops of a few heavy items (the stage-2 verify ranges,
// tens to hundreds of microseconds each) where waking a worker is cheap
// against a single iteration.
func (p *Pool) ForCoarse(n int, fn func(i int)) {
	if p.workers == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	p.dispatch(n, 1, fn)
}

// dispatch runs one loop of n > 0 iterations in claims of grain.
func (p *Pool) dispatch(n int, grain int64, fn func(i int)) {
	t := &poolTask{fn: fn, n: int64(n), grain: grain, fin: make(chan struct{})}
	// Offer the task to at most chunks-1 helpers (the submitter takes at
	// least one chunk itself). Sends are non-blocking: if the queue is
	// full of other tasks the submitter just does more of the work.
	helpers := p.workers - 1
	if maxHelpers := int((int64(n)+grain-1)/grain) - 1; helpers > maxHelpers {
		helpers = maxHelpers
	}
offer:
	for i := 0; i < helpers; i++ {
		select {
		case p.tasks <- t:
		default:
			break offer
		}
	}
	t.run()
	<-t.fin
}

// defaultPool is the process-wide shared executor behind Default.
var (
	defaultPool     *Pool
	defaultPoolOnce sync.Once
)

// Default returns the process-wide shared Pool (GOMAXPROCS workers,
// started on first use, never closed). It is the executor the compare
// layer selects when Options.Exec is nil and the pool service.Default()
// serves from.
func Default() *Pool {
	defaultPoolOnce.Do(func() { defaultPool = NewPool(0) })
	return defaultPool
}
