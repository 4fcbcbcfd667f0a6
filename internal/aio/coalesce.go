package aio

import (
	"context"
	"sort"
	"time"

	"repro/internal/pfs"
)

// Coalescing wraps a Backend and merges nearby scattered reads into fewer,
// larger operations before submission — the standard optimization for the
// verification stage's I/O pattern: when divergent chunks cluster (as they
// do for spatially correlated divergence), adjacent candidate chunks can
// be fetched with one request, trading a bounded amount of wasted gap
// bytes for a large reduction in operation count. With latency-dominated
// scattered batches this is where most of the stage-2 speedup comes from,
// which is why the compare layer enables it by default.
//
// Planning state (index order, runs, merged requests, and the buffer that
// hole-bridging runs land in) is checked out of a stage-2 Arena per batch
// group and returned after the scatter, so steady-state coalescing does no
// heap allocation and concurrent batch groups never wait on one another's
// reads. NewCoalescing attaches the inner ring's arena; a zero-value
// Coalescing still works but plans each batch in fresh memory.
//
// A merged run whose members tile its file window without holes and whose
// destination buffers are adjacent in memory in file order — the layout
// the stream reader produces for adjacent extents of a source — is
// read straight into the destination and needs no scatter copy. Which
// buffer a merged request lands in changes nothing the inner backend
// prices: offsets, lengths and op counts are the planner's either way.
//
// Coalescing implements PairReader by planning each side independently and
// handing both merged batches to the inner backend's pair path (falling
// back to two serial inner reads when the inner backend lacks one).
type Coalescing struct {
	// Inner executes the merged batch (nil selects Default()).
	Inner Backend
	// MaxGap is the largest hole (in bytes) bridged between two requests
	// (default 16 KiB). Gap bytes are read and discarded.
	MaxGap int

	arena *Arena
}

var (
	_ Backend    = Coalescing{}
	_ PairReader = Coalescing{}
)

// NewCoalescing wraps a backend with defaults applied, planning in the
// backend's own stage-2 arena (a private one when the backend has none).
func NewCoalescing(inner Backend, maxGap int) Coalescing {
	if inner == nil {
		inner = Default()
	}
	arena := ArenaOf(inner)
	if arena == nil {
		arena = NewArena(0)
	}
	return Coalescing{Inner: inner, arena: arena}.WithMaxGap(maxGap)
}

// WithMaxGap returns a copy bridging holes up to maxGap bytes (<= 0
// selects the 16 KiB default) that shares this one's backend and arena.
func (c Coalescing) WithMaxGap(maxGap int) Coalescing {
	if maxGap <= 0 {
		maxGap = 16 << 10
	}
	c.MaxGap = maxGap
	return c
}

// Arena returns the arena the coalescer plans in (nil for a zero value).
func (c Coalescing) Arena() *Arena { return c.arena }

func (c Coalescing) inner() Backend {
	if c.Inner == nil {
		return Default()
	}
	return c.Inner
}

// Name implements Backend.
func (c Coalescing) Name() string { return c.inner().Name() + "+coalesce" }

// acquire checks a plan scratch out of the arena (a throwaway without
// one). Pair with release. (No closures here: a per-batch method-value
// allocation would defeat the arena.)
func (c Coalescing) acquire() *coalesceScratch {
	var sc *coalesceScratch
	if c.arena != nil {
		sc = c.arena.getScratch()
	} else {
		sc = &coalesceScratch{}
	}
	sc.begin()
	return sc
}

// release returns the scratch to the arena; throwaway scratches just drop.
func (c Coalescing) release(sc *coalesceScratch) {
	if c.arena != nil {
		c.arena.putScratch(sc)
	}
}

// ReadBatch merges, executes, and scatters results back into the original
// request buffers.
func (c Coalescing) ReadBatch(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	if len(reqs) <= 1 {
		return c.inner().ReadBatch(ctx, f, reqs)
	}
	sc := c.acquire()
	defer c.release(sc)
	p, err := sc.plan(reqs, c.MaxGap)
	if err != nil {
		return pfs.Cost{}, 0, err
	}
	cost, elapsed, err := c.inner().ReadBatch(ctx, f, sc.merged[p.mlo:p.mhi])
	if err != nil {
		return cost, elapsed, err
	}
	sc.scatter(p, reqs)
	return cost, elapsed, nil
}

// ReadBatchPair implements PairReader: each side is planned independently
// (runs never merge across files) and the two merged batches execute as
// one overlapped pair when the inner backend supports it.
func (c Coalescing) ReadBatchPair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	sc := c.acquire()
	defer c.release(sc)
	pa, err := sc.plan(reqsA, c.MaxGap)
	if err != nil {
		return pfs.Cost{}, 0, err
	}
	pb, err := sc.plan(reqsB, c.MaxGap)
	if err != nil {
		return pfs.Cost{}, 0, err
	}
	mergedA := sc.merged[pa.mlo:pa.mhi]
	mergedB := sc.merged[pb.mlo:pb.mhi]

	inner := c.inner()
	var cost pfs.Cost
	var elapsed time.Duration
	if pr, ok := inner.(PairReader); ok {
		cost, elapsed, err = pr.ReadBatchPair(ctx, fA, fB, mergedA, mergedB)
	} else {
		// No pair path underneath: the two merged batches serialize.
		cost, elapsed, err = inner.ReadBatch(ctx, fA, mergedA)
		if err == nil {
			var costB pfs.Cost
			var tB time.Duration
			costB, tB, err = inner.ReadBatch(ctx, fB, mergedB)
			cost.Add(costB)
			elapsed += tB
		}
	}
	if err != nil {
		return cost, elapsed, err
	}
	sc.scatter(pa, reqsA)
	sc.scatter(pb, reqsB)
	return cost, elapsed, nil
}

// crun is one merged run: the file window [off,end) covering the original
// requests at order[lo:hi] (offset-sorted, so members are consecutive).
// direct marks a run read straight into its members' buffers.
type crun struct {
	off, end int64
	lo, hi   int
	direct   bool
}

// crunBytes is the in-memory size of one crun, for arena accounting.
const crunBytes = 40

// coalescePlan addresses one planned batch inside the scratch arena:
// runs[rlo:rhi] and merged[mlo:mhi]. Plans are index ranges rather than
// slices because a later plan in the same arena may grow (and therefore
// move) the shared backing arrays.
type coalescePlan struct {
	rlo, rhi int
	mlo, mhi int
}

// coalesceScratch holds the planning state of one batch group: the
// offset-sorted index order, the merged runs, the merged request batch,
// and one grow-only byte buffer the hole-bridging merged reads land in.
// All of it is reset (not freed) per batch group, so a scratch reaches a
// high-water size and then recycles through the arena.
type coalesceScratch struct {
	sorter orderSorter
	runs   []crun
	merged []ReadReq
	buf    []byte
	used   int
}

// bytes is the memory the scratch pins while it sits in the free list.
func (sc *coalesceScratch) bytes() int64 {
	return int64(cap(sc.buf)) + 8*int64(cap(sc.sorter.order)) +
		crunBytes*int64(cap(sc.runs)) + readReqBytes*int64(cap(sc.merged))
}

// begin resets the scratch for a new batch group, keeping capacity.
func (sc *coalesceScratch) begin() {
	sc.sorter.order = sc.sorter.order[:0]
	sc.runs = sc.runs[:0]
	sc.merged = sc.merged[:0]
	sc.used = 0
}

// carve returns an n-byte window of the arena buffer. Growing allocates a
// fresh backing array; windows carved earlier keep referencing the old one,
// which stays valid for the rest of the batch group.
func (sc *coalesceScratch) carve(n int) []byte {
	if len(sc.buf)-sc.used < n {
		size := 2 * len(sc.buf)
		if size < n {
			size = n
		}
		if size < 1<<20 {
			size = 1 << 20
		}
		sc.buf = make([]byte, size)
		sc.used = 0
	}
	b := sc.buf[sc.used : sc.used+n]
	sc.used += n
	return b
}

// orderSorter sorts request indices by offset. It is kept in the scratch
// (and passed to sort.Sort by pointer) so sorting allocates nothing.
type orderSorter struct {
	order []int
	reqs  []ReadReq
	base  int
}

func (s *orderSorter) Len() int { return len(s.order) - s.base }
func (s *orderSorter) Less(i, j int) bool {
	return s.reqs[s.order[s.base+i]].Off < s.reqs[s.order[s.base+j]].Off
}
func (s *orderSorter) Swap(i, j int) {
	o := s.order
	o[s.base+i], o[s.base+j] = o[s.base+j], o[s.base+i]
}

// plan validates reqs, sorts them by offset, and appends their merged runs
// and merged requests to the arena.
func (sc *coalesceScratch) plan(reqs []ReadReq, maxGap int) (coalescePlan, error) {
	if maxGap <= 0 {
		maxGap = 16 << 10
	}
	p := coalescePlan{rlo: len(sc.runs), mlo: len(sc.merged)}
	p.rhi, p.mhi = p.rlo, p.mlo
	if len(reqs) == 0 {
		return p, nil
	}
	for i := range reqs {
		if err := checkReq(&reqs[i]); err != nil {
			return p, err
		}
	}
	olo := len(sc.sorter.order)
	for i := range reqs {
		sc.sorter.order = append(sc.sorter.order, i)
	}
	sc.sorter.reqs = reqs
	sc.sorter.base = olo
	sort.Sort(&sc.sorter)
	sc.sorter.reqs = nil

	order := sc.sorter.order
	first := &reqs[order[olo]]
	cur := crun{off: first.Off, end: first.Off + int64(first.Len), lo: olo, hi: olo + 1}
	for oi := olo + 1; oi < len(order); oi++ {
		r := &reqs[order[oi]]
		if r.Off <= cur.end+int64(maxGap) {
			if end := r.Off + int64(r.Len); end > cur.end {
				cur.end = end
			}
			cur.hi = oi + 1
			continue
		}
		sc.runs = append(sc.runs, cur)
		cur = crun{off: r.Off, end: r.Off + int64(r.Len), lo: oi, hi: oi + 1}
	}
	sc.runs = append(sc.runs, cur)

	for ri := p.rlo; ri < len(sc.runs); ri++ {
		r := &sc.runs[ri]
		n := int(r.end - r.off)
		buf := directLanding(reqs, order, r)
		if r.direct = buf != nil; !r.direct {
			buf = sc.carve(n)
		}
		sc.merged = append(sc.merged, ReadReq{Off: r.off, Len: n, Buf: buf, Tag: ri - p.rlo})
	}
	p.rhi = len(sc.runs)
	p.mhi = len(sc.merged)
	return p, nil
}

// directLanding returns the destination a run can be read straight into —
// its first member's buffer extended over the whole window — or nil when
// the run needs the scratch path. Direct landing requires the members to
// tile the window exactly (no hole, overlap or duplicate, so every byte
// read is wanted) and their buffers to be adjacent in memory in file
// order; a single request always qualifies.
func directLanding(reqs []ReadReq, order []int, r *crun) []byte {
	n := int(r.end - r.off)
	first := &reqs[order[r.lo]]
	if cap(first.Buf) < n {
		return nil
	}
	dst := first.Buf[:n]
	next := r.off
	for oi := r.lo; oi < r.hi; oi++ {
		q := &reqs[order[oi]]
		if q.Off != next || &dst[q.Off-r.off] != &q.Buf[0] {
			return nil
		}
		next += int64(q.Len)
	}
	return dst
}

// scatter copies each original request's bytes out of its run's merged
// buffer; direct-landed runs already hold theirs.
func (sc *coalesceScratch) scatter(p coalescePlan, reqs []ReadReq) {
	for ri := p.rlo; ri < p.rhi; ri++ {
		r := sc.runs[ri]
		if r.direct {
			continue
		}
		merged := sc.merged[p.mlo+(ri-p.rlo)]
		for oi := r.lo; oi < r.hi; oi++ {
			req := &reqs[sc.sorter.order[oi]]
			src := req.Off - r.off
			copy(req.Buf[:req.Len], merged.Buf[src:src+int64(req.Len)])
		}
	}
}
