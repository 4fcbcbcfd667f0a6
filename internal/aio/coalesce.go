package aio

import (
	"context"
	"sort"
	"time"

	"repro/internal/pfs"
)

// Coalescing wraps a Backend and merges nearby scattered reads into fewer,
// larger operations before pricing them — the standard optimization for the
// verification stage's I/O pattern: when divergent chunks cluster (as they
// do for spatially correlated divergence), adjacent candidate chunks can
// be fetched with one request, trading a bounded amount of wasted gap
// bytes for a large reduction in operation count. With latency-dominated
// scattered batches this is where most of the stage-2 speedup comes from,
// which is why the compare layer enables it by default.
//
// A merged run is priced, and its bit flips decided, as one read over its
// whole window, gap bytes included; only the requests' own bytes ever land
// (pfs.File.Copy), so a flip that falls in a bridged gap is dropped.
//
// Planning state (index order, merged requests) is checked out of a
// stage-2 Arena per batch group and returned after pricing, so
// steady-state coalescing does no heap allocation. NewCoalescing attaches
// the inner ring's arena; a zero-value Coalescing still works but plans
// each batch in fresh memory.
//
// Coalescing implements PairPricer by planning each side independently and
// handing both merged batches to the inner backend's pair path (falling
// back to two serial inner batches when the inner backend lacks one).
type Coalescing struct {
	// Inner prices the merged batch (nil selects Default()).
	Inner Backend
	// MaxGap is the largest hole (in bytes) bridged between two requests
	// (default 16 KiB). Gap bytes are priced and never land.
	MaxGap int

	arena *Arena
}

var (
	_ Backend    = Coalescing{}
	_ PairPricer = Coalescing{}
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
	sc.sorter.order = sc.sorter.order[:0]
	sc.merged = sc.merged[:0]
	return sc
}

// release returns the scratch to the arena; throwaway scratches just drop.
func (c Coalescing) release(sc *coalesceScratch) {
	if c.arena != nil {
		c.arena.putScratch(sc)
	}
}

// Price implements Backend: the merged runs priced through the inner
// backend.
func (c Coalescing) Price(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	if len(reqs) <= 1 {
		return c.inner().Price(ctx, f, reqs)
	}
	sc := c.acquire()
	defer c.release(sc)
	lo, hi, err := sc.plan(reqs, c.MaxGap)
	if err != nil {
		return pfs.Cost{}, 0, err
	}
	return c.inner().Price(ctx, f, sc.merged[lo:hi])
}

// PricePair implements PairPricer: each side is planned independently
// (runs never merge across files) and the two merged batches price as one
// overlapped pair when the inner backend supports it.
func (c Coalescing) PricePair(ctx context.Context, fA, fB *pfs.File, reqsA, reqsB []ReadReq) (pfs.Cost, time.Duration, error) {
	sc := c.acquire()
	defer c.release(sc)
	loA, hiA, err := sc.plan(reqsA, c.MaxGap)
	if err != nil {
		return pfs.Cost{}, 0, err
	}
	loB, hiB, err := sc.plan(reqsB, c.MaxGap)
	if err != nil {
		return pfs.Cost{}, 0, err
	}
	return pricePair(ctx, c.inner(), fA, fB, sc.merged[loA:hiA], sc.merged[loB:hiB])
}

// coalesceScratch holds the planning state of one batch group: the
// offset-sorted index order and the merged request batch. Both are reset
// (not freed) per batch group, so a scratch reaches a high-water size and
// then recycles through the arena.
type coalesceScratch struct {
	sorter orderSorter
	merged []ReadReq
}

// bytes is the memory the scratch pins while it sits in the free list.
func (sc *coalesceScratch) bytes() int64 {
	return 8*int64(cap(sc.sorter.order)) + readReqBytes*int64(cap(sc.merged))
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
// to the scratch: merged[lo:hi], one request per run, its window from the
// first member's offset to the furthest member's end.
func (sc *coalesceScratch) plan(reqs []ReadReq, maxGap int) (lo, hi int, err error) {
	if maxGap <= 0 {
		maxGap = 16 << 10
	}
	lo = len(sc.merged)
	if len(reqs) == 0 {
		return lo, lo, nil
	}
	for i := range reqs {
		if err := checkReq(&reqs[i]); err != nil {
			return lo, lo, err
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

	order := sc.sorter.order[olo:]
	first := &reqs[order[0]]
	off, end := first.Off, first.Off+int64(first.Len)
	for _, i := range order[1:] {
		r := &reqs[i]
		if r.Off <= end+int64(maxGap) {
			end = max(end, r.Off+int64(r.Len))
			continue
		}
		sc.merged = append(sc.merged, ReadReq{Off: off, Len: int(end - off), Tag: len(sc.merged) - lo})
		off, end = r.Off, r.Off+int64(r.Len)
	}
	sc.merged = append(sc.merged, ReadReq{Off: off, Len: int(end - off), Tag: len(sc.merged) - lo})
	return lo, len(sc.merged), nil
}
