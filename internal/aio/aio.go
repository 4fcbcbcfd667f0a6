// Package aio prices the comparator's scattered reads (paper §2.5.2). A
// Backend charges a batch of reads — the fault hook's decisions, the page
// cache, the store's read counters, the virtual time the batch takes — and
// moves no byte: stage 2 (internal/stream) lands what it priced with
// pfs.File.Land. ReadBatch prices then copies, for a caller that wants the
// bytes in buffers of its own (the benchmark's probes). Two backends price
// the same requests two ways:
//
//   - Uring: io_uring's model — many reads in flight, their latencies
//     overlapping up to the queue depth, one final completion latency. The
//     SQ/CQ latency hiding Fig. 9 measures is priced (priceOverlapped), not
//     emulated with goroutines: a batch is touched in request order on the
//     caller's goroutine. Uring is a PairPricer too: the comparator's
//     run-A and run-B batches price as one deep queue, their latencies
//     overlapping instead of summing tA + tB.
//   - Mmap: a memory-map-style backend in which every first touch of a
//     page triggers a synchronous page fault: faults serialize and each
//     pays the full device latency. This is the slower baseline of Fig. 9.
//
// Neither merges requests: what reads as one priced run is the caller's
// to decide (stage 2 merges each window's nearby extents; stream.Config's
// MaxGap).
package aio

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pfs"
)

// ReadReq is one scattered read of Len bytes at Off. Buf holds its bytes:
// the buffer ReadBatch fills, or what stage 2 landed. Tag is an opaque
// caller identifier (the comparator uses the chunk index).
type ReadReq struct {
	Off int64
	Len int
	Buf []byte
	Tag int
}

// Backend prices a batch of scattered requests against a file: it returns
// the aggregate storage cost and the virtual elapsed time of the whole
// batch, and leaves every buffer alone. A request that fails its read
// (a fault hook's error) fails the batch; cancelling the context stops it
// and the call returns ctx.Err().
type Backend interface {
	// Name identifies the backend in reports ("io_uring", "mmap").
	Name() string
	// Price charges reading every request from f.
	Price(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error)
}

// PairPricer is implemented by backends that can price the run-A and run-B
// halves of a verification window as one overlapped batch. Both files must
// live in the same store: the combined batch is priced once, against fA's
// cost model, as a single deep queue of in-flight operations. Backends
// without this fast path are priced one batch after the other.
type PairPricer interface {
	Backend
	// PricePair charges reqsA against fA and reqsB against fB as one
	// overlapped batch.
	PricePair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error)
}

// pricePair prices two batches as one overlapped pair on a PairPricer, one
// after the other on any other backend.
func pricePair(ctx context.Context, be Backend, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	if pp, ok := be.(PairPricer); ok {
		return pp.PricePair(ctx, fA, fB, reqsA, reqsB)
	}
	cost, elapsed, err := be.Price(ctx, fA, reqsA)
	if err == nil {
		var costB pfs.Cost
		var tB time.Duration
		costB, tB, err = be.Price(ctx, fB, reqsB)
		cost.Add(costB)
		elapsed += tB
	}
	return cost, elapsed, err
}

// ReadBatch prices reqs through be and lands every request's bytes in its
// buffer: the whole read, for a caller that wants the bytes with the
// price.
func ReadBatch(ctx context.Context, be Backend, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	cost, elapsed, err := be.Price(ctx, f, reqs)
	if err == nil {
		err = land(f, reqs)
	}
	return cost, elapsed, err
}

// land copies every request's bytes into its buffer.
func land(f *pfs.File, reqs []ReadReq) error {
	for i := range reqs {
		q := &reqs[i]
		if len(q.Buf) < q.Len {
			return fmt.Errorf("aio: request tag %d buffer too small: %d < %d", q.Tag, len(q.Buf), q.Len)
		}
		if err := f.Copy(q.Buf[:q.Len], q.Off); err != nil {
			return err
		}
	}
	return nil
}

// Uring is the io_uring-style backend. The zero value is usable (queue
// depth 64); it holds nothing but its queue depth, so it is safe for
// concurrent use and never needs closing.
type Uring struct {
	// QueueDepth is the maximum number of in-flight operations (ring size):
	// the overlap priceOverlapped grants.
	QueueDepth int
}

var (
	_ Backend    = (*Uring)(nil)
	_ PairPricer = (*Uring)(nil)
)

// NewUring returns a Uring backend (queue depth < 1 selects 64).
func NewUring(queueDepth int) *Uring {
	if queueDepth < 1 {
		queueDepth = 64
	}
	return &Uring{QueueDepth: queueDepth}
}

// Name implements Backend.
func (u *Uring) Name() string { return "io_uring" }

func (u *Uring) queueDepth() int {
	if u.QueueDepth < 1 {
		return 64
	}
	return u.QueueDepth
}

// Price implements Backend: every request priced in order, the batch at
// the ring's queue depth.
func (u *Uring) Price(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	if len(reqs) == 0 {
		return pfs.Cost{}, 0, nil
	}
	cost, err := priceEach(ctx, f, reqs)
	if cerr := ctx.Err(); cerr != nil {
		return cost, 0, cerr
	}
	elapsed := priceOverlapped(f, reqs[0].Off, cost, u.queueDepth(), batchIsScattered(len(reqs), batchBytes(reqs)))
	return cost, elapsed, err
}

// PricePair implements PairPricer: both runs' requests enter the one queue
// back to back and complete as a single deep queue, so the pair is priced
// once — the A and B latencies overlap instead of summing, and the final
// completion latency is paid once instead of twice. Both files must live
// in the same store; the combined batch is priced against fA's model.
func (u *Uring) PricePair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	if len(reqsA)+len(reqsB) == 0 {
		return pfs.Cost{}, 0, nil
	}
	cost, errA := priceEach(ctx, fA, reqsA)
	if cerr := ctx.Err(); cerr != nil {
		return cost, 0, cerr
	}
	costB, errB := priceEach(ctx, fB, reqsB)
	cost.Add(costB)
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
	if errA == nil {
		errA = errB
	}
	return cost, elapsed, errA
}

// ReadBatch prices reqs through the ring and lands them.
func (u *Uring) ReadBatch(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	return ReadBatch(ctx, u, f, reqs)
}

// ReadBatchPair prices both runs as one overlapped pair and lands them.
func (u *Uring) ReadBatchPair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	return readBatchPair(ctx, u, fA, fB, reqsA, reqsB)
}

// readBatchPair prices two batches as one overlapped pair and lands both.
func readBatchPair(ctx context.Context, pp PairPricer, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	cost, elapsed, err := pp.PricePair(ctx, fA, fB, reqsA, reqsB)
	if err == nil {
		err = land(fA, reqsA)
	}
	if err == nil {
		err = land(fB, reqsB)
	}
	return cost, elapsed, err
}

// defaultUring is the process-wide shared engine behind Default.
var defaultUring = NewUring(256)

// Default returns the process-wide shared io_uring-style engine (queue
// depth 256). It is the backend the compare layer selects when
// Options.Backend is nil and the ring service.Default() serves from,
// mirroring device.Default().
func Default() *Uring { return defaultUring }

// priceEach prices every request of a queued batch in order and returns
// their summed cost and the first request's error. Like a ring's
// completions, the requests after a failed one are still priced (a
// canceled context stops the batch).
func priceEach(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, error) {
	var cost pfs.Cost
	var first error
	for i := range reqs {
		if ctx.Err() != nil {
			break
		}
		q := &reqs[i]
		err := checkReq(q)
		if err == nil {
			var c pfs.Cost
			c, err = f.Price(q.Off, q.Len)
			cost.Add(c)
		}
		if first == nil {
			first = err
		}
	}
	return cost, first
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
	store := f.Store()
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

// Price implements Backend: every request's clusters are faulted in order,
// each of which lands only the request's share. Every fault is a
// cancellation point, and the first failure ends the batch.
func (mm Mmap) Price(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	store := f.Store()
	m := store.Model()
	around := mm.FaultAroundPages
	if around < 1 {
		around = 32
	}
	clusterSize := int64(m.PageSize) * int64(around)
	var cost pfs.Cost
	for i := range reqs {
		r := &reqs[i]
		if err := checkReq(r); err != nil {
			return cost, 0, err
		}
		end := r.Off + int64(r.Len)
		for c := r.Off / clusterSize; c <= (end-1)/clusterSize; c++ {
			if err := ctx.Err(); err != nil {
				return cost, 0, fmt.Errorf("aio: mmap fault at cluster %d: %w", c, err)
			}
			clusterOff := c * clusterSize
			cc, err := f.PriceLanding(clusterOff, int(clusterSize), max(r.Off, clusterOff), min(end, clusterOff+clusterSize))
			cost.Add(cc)
			if err != nil {
				return cost, 0, fmt.Errorf("aio: mmap fault at cluster %d: %w", c, err)
			}
		}
	}
	// Synchronous pricing: every fault serializes its full latency.
	elapsed := time.Duration(cost.Ops)*m.ReadLatency +
		time.Duration(cost.CachedOps)*m.CachedLatency +
		m.BandwidthTerm(cost, store.Sharers())
	return cost, elapsed, nil
}

func checkReq(r *ReadReq) error {
	if r.Len <= 0 {
		return fmt.Errorf("aio: request tag %d has non-positive length %d", r.Tag, r.Len)
	}
	if r.Off < 0 {
		return fmt.Errorf("aio: request tag %d has negative offset %d", r.Tag, r.Off)
	}
	return nil
}
