// Package aio provides the asynchronous scattered-read engine of the
// comparator (paper §2.5.2). Two backends implement the same interface:
//
//   - Uring: an io_uring-style engine with a submission queue and a
//     completion queue shared with a pool of "kernel" workers. The ring is
//     persistent: it starts lazily on first use and is reused across every
//     ReadBatch call, so steady-state batches pay no goroutine spawn or
//     teardown. Many reads are enqueued with a single submit, latencies
//     overlap up to the queue depth, and completions are reaped
//     asynchronously. Uring also implements PairReader: the comparator's
//     run-A and run-B batches are submitted into the one ring together so
//     their latencies overlap instead of summing tA + tB.
//   - Mmap: a memory-map-style backend in which every first touch of a
//     page triggers a synchronous page fault: faults serialize and each
//     pays the full device latency. This is the slower baseline of Fig. 9.
//
// Both backends perform real reads through the pfs store (so data paths
// are exercised end to end) and price the batch on the virtual clock using
// the store's cost model.
package aio

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/pfs"
)

// ReadReq is one scattered read: fill Buf[:Len] from Off. Tag is an opaque
// caller identifier (the comparator uses the chunk index).
type ReadReq struct {
	Off int64
	Len int
	Buf []byte
	Tag int
}

// Backend reads a batch of scattered requests from a file. It returns the
// aggregate storage cost and the virtual elapsed time of the whole batch.
// Implementations must fill every request's buffer before returning.
// Cancelling the context aborts the batch: in-flight operations complete
// (or are skipped) promptly and the call returns ctx.Err().
type Backend interface {
	// Name identifies the backend in reports ("io_uring", "mmap").
	Name() string
	// ReadBatch executes all requests against f.
	ReadBatch(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error)
}

// PairReader is implemented by backends that can execute the run-A and
// run-B halves of a verification slice as one overlapped batch. Both
// files must live in the same store: the combined batch is priced once,
// against fA's cost model, as a single deep queue of in-flight operations.
// Backends without this fast path are driven through two serial ReadBatch
// calls by the stream pipeline.
type PairReader interface {
	Backend
	// ReadBatchPair executes reqsA against fA and reqsB against fB as one
	// overlapped batch, returning the combined cost and the virtual
	// elapsed time of the whole pair.
	ReadBatchPair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error)
}

// Uring is the io_uring-style backend. The zero value is usable: the
// persistent ring starts lazily on the first batch with defaulted
// parameters. A Uring serializes batch groups internally, so it is safe
// for concurrent use; Close stops the ring's workers (the next batch
// restarts them), and the process-wide Default engine is never closed.
type Uring struct {
	// QueueDepth is the maximum number of in-flight operations (ring size).
	QueueDepth int
	// Workers is the number of kernel-side worker goroutines.
	Workers int

	// mu serializes batch groups on the ring (one ReadBatch or
	// ReadBatchPair reaps exactly its own completions) and guards the
	// lazy ring start.
	mu   sync.Mutex
	ring *Ring

	arenaOnce sync.Once
	arena     *Arena
}

var (
	_ Backend    = (*Uring)(nil)
	_ PairReader = (*Uring)(nil)
)

// Arena returns the ring's stage-2 buffer arena (created on first use
// with DefaultArenaLimit; the owner may SetLimit it). Everything that
// reads through this ring — the stream pipeline's window buffers, the
// coalescer's plan scratch — recycles through it,
// so buffers live as long as the ring rather than as long as one
// comparison. Close leaves it alone; the ring's owner Releases it.
func (u *Uring) Arena() *Arena {
	u.arenaOnce.Do(func() { u.arena = NewArena(0) })
	return u.arena
}

// NewUring returns a Uring backend with sensible defaults applied
// (queue depth 64, workers 4). The ring itself starts on first use.
func NewUring(queueDepth, workers int) *Uring {
	if queueDepth < 1 {
		queueDepth = 64
	}
	if workers < 1 {
		workers = 4
	}
	return &Uring{QueueDepth: queueDepth, Workers: workers}
}

// Name implements Backend.
func (u *Uring) Name() string { return "io_uring" }

func (u *Uring) queueDepth() int {
	if u.QueueDepth < 1 {
		return 64
	}
	return u.QueueDepth
}

// ensureRing lazily starts the persistent ring. Caller holds u.mu.
func (u *Uring) ensureRing() *Ring {
	if u.ring == nil {
		workers := u.Workers
		if workers < 1 {
			workers = 4
		}
		u.ring = NewRing(u.queueDepth(), workers)
	}
	return u.ring
}

// Close stops the persistent ring's workers. The ring restarts lazily on
// the next batch, so a closed Uring remains usable; Close exists so
// bounded-lifetime backends (benchmarks, per-experiment engines) do not
// leak workers.
func (u *Uring) Close() {
	u.mu.Lock()
	ring := u.ring
	u.ring = nil
	u.mu.Unlock()
	if ring != nil {
		ring.Close()
	}
}

// ReadBatch submits all requests through the persistent ring and reaps
// their completions. On cancellation every submitted operation is still
// reaped (so the ring stays reusable) and ctx.Err() is returned.
func (u *Uring) ReadBatch(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	if len(reqs) == 0 {
		return pfs.Cost{}, 0, nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	ring := u.ensureRing()
	submitted, serr := ring.Submit(ctx, f, reqs)
	cost, err := ring.reapCost(submitted)
	if serr != nil {
		return cost, 0, serr
	}
	if cerr := ctx.Err(); cerr != nil {
		return cost, 0, cerr
	}
	elapsed := priceOverlapped(f, reqs[0].Off, cost, u.queueDepth(), batchIsScattered(len(reqs), batchBytes(reqs)))
	return cost, elapsed, err
}

// ReadBatchPair implements PairReader: both runs' requests enter the one
// ring back to back and complete as a single deep queue, so the pair is
// priced once — the A and B latencies overlap instead of summing, and the
// final-completion latency is paid once instead of twice. Both files must
// live in the same store; the combined batch is priced against fA's model.
func (u *Uring) ReadBatchPair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	if len(reqsA)+len(reqsB) == 0 {
		return pfs.Cost{}, 0, nil
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	ring := u.ensureRing()
	subA, errA := ring.Submit(ctx, fA, reqsA)
	if errA != nil {
		// Part of the A half may already be in flight: drain its
		// completions so the ring stays reusable for the next group.
		cost, _ := ring.reapCost(subA)
		return cost, 0, errA
	}
	subB, errB := ring.Submit(ctx, fB, reqsB)
	cost, err := ring.reapCost(subA + subB)
	if errB != nil {
		return cost, 0, errB
	}
	if cerr := ctx.Err(); cerr != nil {
		return cost, 0, cerr
	}
	ops := len(reqsA) + len(reqsB)
	scattered := batchIsScattered(ops, batchBytes(reqsA)+batchBytes(reqsB))
	first := reqsA
	if len(first) == 0 {
		first = reqsB
	}
	elapsed := priceOverlapped(fA, first[0].Off, cost, u.queueDepth(), scattered)
	return cost, elapsed, err
}

// defaultUring is the process-wide shared engine behind Default.
var (
	defaultUring     *Uring
	defaultUringOnce sync.Once
)

// Default returns the process-wide shared io_uring-style engine (queue
// depth 256, 4 workers; ring started on first use, never closed). It is
// the backend the compare layer selects when Options.Backend is nil and
// the ring service.Default() serves from, mirroring device.Default().
func Default() *Uring {
	defaultUringOnce.Do(func() { defaultUring = NewUring(256, 4) })
	return defaultUring
}

// Legacy is the pre-persistent-ring engine: every ReadBatch constructs a
// fresh Ring, drives one batch through it, and tears it down — paying
// worker spawn and join per batch — and it implements only Backend, so
// run-A and run-B batches serialize. It stays in production code as the
// fresh-ring rung of ReadLadder (its one production call site), which
// needs exactly a ring that owes nothing to the shared one; cmd/benchstream
// also measures it as the "before" baseline. New code should use Uring.
type Legacy struct {
	// QueueDepth is the ring size (default 64).
	QueueDepth int
	// Workers is the worker count per ring (default 4).
	Workers int
}

var _ Backend = Legacy{}

// Name implements Backend.
func (Legacy) Name() string { return "io_uring_fresh" }

// ReadBatch spawns a ring, submits all requests, reaps, and tears the
// ring down.
func (l Legacy) ReadBatch(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	if len(reqs) == 0 {
		return pfs.Cost{}, 0, nil
	}
	queueDepth := l.QueueDepth
	if queueDepth < 1 {
		queueDepth = 64
	}
	workers := l.Workers
	if workers < 1 {
		workers = 4
	}
	ring := NewRing(queueDepth, workers)
	defer ring.Close()
	submitted, serr := ring.Submit(ctx, f, reqs)
	cost, err := ring.reapCost(submitted)
	if serr != nil {
		return cost, 0, serr
	}
	if cerr := ctx.Err(); cerr != nil {
		return cost, 0, cerr
	}
	elapsed := priceOverlapped(f, reqs[0].Off, cost, queueDepth, batchIsScattered(len(reqs), batchBytes(reqs)))
	return cost, elapsed, err
}

// scatteredMaxReq is the request size up to which a deep queue of reads
// stripes across a PFS's storage targets and reaches the model's
// scattered (aggregate) bandwidth. Larger requests behave like sequential
// streams.
const scatteredMaxReq = 2 << 20

// scatteredMinOps is the minimum batch size for the striping effect.
const scatteredMinOps = 8

// batchBytes sums the requested bytes of a batch.
func batchBytes(reqs []ReadReq) int64 {
	var bytes int64
	for i := range reqs {
		bytes += int64(reqs[i].Len)
	}
	return bytes
}

// batchIsScattered reports whether a batch of ops requests totalling bytes
// gets the deep-queue striping bandwidth.
func batchIsScattered(ops int, bytes int64) bool {
	if ops < scatteredMinOps {
		return false
	}
	return bytes/int64(ops) <= scatteredMaxReq
}

// priceOverlapped prices a batch whose per-op latencies overlap up to the
// queue depth. The amortized latency term ADDS to the bandwidth term
// rather than hiding under it: small scattered reads under-utilize a PFS
// (per-RPC server work, per-OST seeks), so the penalty persists even when
// the pipe is otherwise bandwidth-bound — the effect behind the paper's
// chunk-size trade-off (Fig. 5, §3.4.1).
//
// Contention is the batch's home target's: the storage target serving off,
// the batch's first offset, under the store's striping. Without a per-target
// table (only a sharded comparison installs one, for its run) that is the
// store-wide factor.
func priceOverlapped(f *pfs.File, off int64, cost pfs.Cost, queueDepth int, scattered bool) time.Duration {
	store := fileStore(f)
	m := store.Model()
	sharers := store.TargetSharers(store.Striping().TargetOf(off))
	if queueDepth < 1 {
		queueDepth = 1
	}
	rounds := func(n int) time.Duration {
		return time.Duration((n + queueDepth - 1) / queueDepth)
	}
	latTerm := rounds(cost.Ops)*m.ReadLatency + rounds(cost.CachedOps)*m.CachedLatency
	bwTerm := m.BandwidthTerm(cost, sharers)
	if scattered {
		bwTerm = m.ScatteredBandwidthTerm(cost, sharers)
	}
	elapsed := latTerm + bwTerm
	// The final completion still pays one latency.
	switch {
	case cost.Ops > 0:
		elapsed += m.ReadLatency
	case cost.CachedOps > 0:
		elapsed += m.CachedLatency
	}
	return elapsed
}

// Mmap is the synchronous page-fault backend. Each first touch of a cold
// region triggers a synchronous fault that pays the full read latency; the
// kernel's fault-around behaviour brings in a cluster of FaultAroundPages
// pages per fault (Linux defaults to 16; readahead widens it for
// sequential access, so 32 is a fair average), which both amortizes faults
// a little and reads unrequested bytes.
type Mmap struct {
	// FaultAroundPages is the pages brought in per fault (default 32).
	FaultAroundPages int
}

var _ Backend = Mmap{}

// Name implements Backend.
func (Mmap) Name() string { return "mmap" }

// ReadBatch touches every request's pages in order, faulting cold clusters
// synchronously. Every fault is a cancellation point.
func (mm Mmap) ReadBatch(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	store := fileStore(f)
	m := store.Model()
	around := mm.FaultAroundPages
	if around < 1 {
		around = 32
	}
	clusterSize := int64(m.PageSize) * int64(around)
	cluster := make([]byte, clusterSize)
	var cost pfs.Cost
	for i := range reqs {
		r := &reqs[i]
		if err := checkReq(r); err != nil {
			return cost, 0, err
		}
		first := r.Off / clusterSize
		last := (r.Off + int64(r.Len) - 1) / clusterSize
		for c := first; c <= last; c++ {
			clusterOff := c * clusterSize
			n, cc, err := f.ReadAtCtx(ctx, cluster, clusterOff)
			cost.Add(cc)
			if err != nil && !errors.Is(err, io.EOF) {
				return cost, 0, fmt.Errorf("aio: mmap fault at cluster %d: %w", c, err)
			}
			// Copy the overlap of this cluster with the request window.
			lo := r.Off - clusterOff
			if lo < 0 {
				lo = 0
			}
			hi := r.Off + int64(r.Len) - clusterOff
			if hi > int64(n) {
				hi = int64(n)
			}
			if hi > lo {
				dst := clusterOff + lo - r.Off
				copy(r.Buf[dst:dst+(hi-lo)], cluster[lo:hi])
			}
		}
	}
	// Synchronous pricing: every fault serializes its full latency.
	elapsed := time.Duration(cost.Ops)*m.ReadLatency +
		time.Duration(cost.CachedOps)*m.CachedLatency +
		m.BandwidthTerm(cost, store.Sharers())
	return cost, elapsed, nil
}

// Ring is the submission/completion queue pair of the Uring backend.
// Submission blocks only when the submission queue is at the queue depth,
// and workers complete operations concurrently — the programming model of
// io_uring, with the kernel replaced by goroutines. The completion side
// never blocks the workers (io_uring's CQ-overflow behaviour), so a ring
// can always be closed safely even with unreaped completions.
type Ring struct {
	sq chan sqe
	wg sync.WaitGroup

	// submits tracks Submit calls in flight so Close can wait for them
	// before closing sq: a Submit that passed the closed check is
	// guaranteed to finish sending before the channel closes.
	submits sync.WaitGroup

	mu     sync.Mutex
	cond   *sync.Cond
	comps  []Completion // pending completions are comps[head:]
	head   int
	closed bool
}

type sqe struct {
	f   *pfs.File
	req ReadReq
	// cancel, when non-nil and closed, makes the worker complete the
	// operation immediately with errCanceled instead of reading. It is the
	// submitting context's Done channel (a channel, not the context itself,
	// so no context is stored in a struct).
	cancel <-chan struct{}
}

// ErrRingClosed is returned by Submit on a closed ring. Callers holding a
// batch when the shared ring shuts down (a torn-down engine, an exiting
// process) can fall back to a fresh-ring Legacy read of the same requests
// — the first rung of the degradation ladder — instead of failing the
// comparison.
var ErrRingClosed = errors.New("aio: ring closed")

// errCanceled is the completion error of operations skipped because their
// batch's context was canceled. Callers surface ctx.Err() instead.
var errCanceled = errors.New("aio: batch canceled")

// Completion is one completed operation.
type Completion struct {
	Tag  int
	N    int
	Cost pfs.Cost
	Err  error
}

// NewRing creates a ring with the given queue depth and worker count and
// starts the workers. Close must be called to stop them.
func NewRing(queueDepth, workers int) *Ring {
	if queueDepth < 1 {
		queueDepth = 1
	}
	if workers < 1 {
		workers = 1
	}
	r := &Ring{
		sq: make(chan sqe, queueDepth),
	}
	r.cond = sync.NewCond(&r.mu)
	r.wg.Add(workers)
	for i := 0; i < workers; i++ {
		// The worker pool is joined by Ring.Close via r.wg.Wait.
		go r.worker()
	}
	return r
}

func (r *Ring) worker() {
	defer r.wg.Done()
	for e := range r.sq {
		var comp Completion
		comp.Tag = e.req.Tag
		canceled := false
		if e.cancel != nil {
			select {
			case <-e.cancel:
				canceled = true
			default:
			}
		}
		if canceled {
			// Complete without reading so a canceled batch drains the
			// ring at channel speed rather than device speed.
			comp.Err = errCanceled
		} else if err := checkReq(&e.req); err != nil {
			comp.Err = err
		} else {
			n, cost, err := e.f.ReadAt(e.req.Buf[:e.req.Len], e.req.Off)
			comp.N = n
			comp.Cost = cost
			if err != nil && !errors.Is(err, io.EOF) {
				comp.Err = err
			}
		}
		r.mu.Lock()
		r.comps = append(r.comps, comp)
		r.cond.Signal()
		r.mu.Unlock()
	}
}

// Submit enqueues all requests for the file, returning how many entered
// the ring — the count the caller must reap even on error. It blocks only
// when the submission queue is full (in-flight operations at the queue
// depth); a canceled context unblocks it, and the requests submitted
// before cancellation complete fast via their cancel channel. Submit is
// safe against a concurrent Close: it either completes the whole send
// before the queue closes or returns the closed error without sending.
// (Registering in r.submits under r.mu is what closes the old TOCTOU
// window — Close waits on the group before closing sq.)
func (r *Ring) Submit(ctx context.Context, f *pfs.File, reqs []ReadReq) (int, error) {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return 0, ErrRingClosed
	}
	r.submits.Add(1)
	r.mu.Unlock()
	defer r.submits.Done()
	done := ctx.Done()
	for i := range reqs {
		select {
		case r.sq <- sqe{f: f, req: reqs[i], cancel: done}:
		case <-done:
			return i, ctx.Err()
		}
	}
	return len(reqs), nil
}

// takeLocked removes up to n pending completions and returns how many it
// removed and the slice window holding them (valid until r.mu is
// released). When the queue drains completely it is rewound to the front
// of its backing array, so a serialized submit/reap cadence reuses one
// allocation forever.
func (r *Ring) takeLocked(n int) (int, []Completion) {
	avail := len(r.comps) - r.head
	if avail > n {
		avail = n
	}
	window := r.comps[r.head : r.head+avail]
	r.head += avail
	if r.head == len(r.comps) {
		r.comps = r.comps[:0]
		r.head = 0
	}
	return avail, window
}

// Reap waits for n completions and returns them (order is completion
// order, not submission order). The first error encountered is returned
// after all n completions are collected.
func (r *Ring) Reap(n int) ([]Completion, error) {
	out := make([]Completion, 0, n)
	r.mu.Lock()
	for len(out) < n {
		got, window := r.takeLocked(n - len(out))
		if got == 0 {
			r.cond.Wait()
			continue
		}
		out = append(out, window...)
	}
	r.mu.Unlock()
	var firstErr error
	for i := range out {
		if out[i].Err != nil {
			firstErr = out[i].Err
			break
		}
	}
	return out, firstErr
}

// reapCost waits for n completions and folds them directly into an
// aggregate cost without materializing a []Completion — the zero-alloc
// reap the persistent backends use on every batch.
func (r *Ring) reapCost(n int) (pfs.Cost, error) {
	var cost pfs.Cost
	var firstErr error
	got := 0
	r.mu.Lock()
	for got < n {
		k, window := r.takeLocked(n - got)
		if k == 0 {
			r.cond.Wait()
			continue
		}
		for i := range window {
			cost.Add(window[i].Cost)
			if window[i].Err != nil && firstErr == nil {
				firstErr = window[i].Err
			}
		}
		got += k
	}
	r.mu.Unlock()
	return cost, firstErr
}

// Close stops accepting submissions, waits for in-flight operations to
// complete, and stops the workers. Unreaped completions are discarded.
func (r *Ring) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	// Wait for Submits that passed the closed check before closing the
	// channel they send on.
	r.submits.Wait()
	close(r.sq)
	r.wg.Wait()
}

func checkReq(r *ReadReq) error {
	if r.Len <= 0 {
		return fmt.Errorf("aio: request tag %d has non-positive length %d", r.Tag, r.Len)
	}
	if r.Off < 0 {
		return fmt.Errorf("aio: request tag %d has negative offset %d", r.Tag, r.Off)
	}
	if len(r.Buf) < r.Len {
		return fmt.Errorf("aio: request tag %d buffer too small: %d < %d", r.Tag, len(r.Buf), r.Len)
	}
	return nil
}

// fileStore exposes the store behind a file for pricing.
func fileStore(f *pfs.File) *pfs.Store { return f.Store() }
