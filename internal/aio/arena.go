package aio

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BufSet is one recyclable buffer set: the host buffer one source's extents
// of one pipeline window are read into, and the request batch that
// addresses it — or, with the batch unused, the buffer one member's
// metadata file is read into and its trees decoded over. A set belongs to
// whoever checked it out of an Arena until it is put back; the arena never
// looks inside it.
type BufSet struct {
	Buf  []byte
	Reqs []ReadReq
}

// readReqBytes is the in-memory size of one ReadReq (offset, length,
// slice header, tag), for the arena's byte accounting.
const readReqBytes = 48

// bytes is the memory the set pins while it sits in the free list.
func (s *BufSet) bytes() int64 {
	return int64(cap(s.Buf)) + readReqBytes*int64(cap(s.Reqs))
}

// MaxSetBytes is the largest buffer set (or coalescer scratch) an arena
// keeps: two sources' share of a default 8 MiB pipeline window, each with
// the one job a window may overshoot by (up to 1 MiB) and its request
// batch. Larger sets — a caller-raised SliceBytes — are allocated per use
// and dropped on return.
const MaxSetBytes = 2 * (9 << 20)

// DefaultArenaLimit bounds an arena nobody sized: sixteen default pair
// comparisons' worth (one window of two sources each) of window sets,
// which the far smaller metadata sets of their members share.
const DefaultArenaLimit = 8 * 2 * MaxSetBytes

// Arena is the comparison buffer arena: a bounded free list of buffer sets
// (stage 2's windows, stage 1's metadata files) and coalescer plan scratch
// that outlives the comparisons drawing on it, so a steady stream of
// comparisons allocates no buffers at all. It lives as long as the ring
// that owns it (Uring.Arena) — a service plane's, or the process-wide
// Default ring's — the way io_uring registered buffers live with their
// ring.
//
// Checkout never blocks: an empty free list allocates (counted as a miss).
// Return is where the bound is enforced: a set larger than MaxSetBytes, or
// one that would take the retained total past the limit, is dropped for
// the collector instead of kept. Retained bytes therefore never exceed
// the limit, whatever the concurrency. Safe for concurrent use; the lock
// is held only for the list operation, never across I/O.
type Arena struct {
	mu       sync.Mutex
	limit    int64
	sets     []*BufSet
	scratch  []*coalesceScratch
	retained int64 // bytes pinned by the two free lists
	out      int   // sets and scratches checked out and not yet returned
	misses   uint64
}

// NewArena returns an empty arena that retains at most limit bytes
// (limit <= 0 selects DefaultArenaLimit).
func NewArena(limit int64) *Arena {
	a := &Arena{}
	a.SetLimit(limit)
	return a
}

// SetLimit changes the retained-bytes bound (limit <= 0 selects
// DefaultArenaLimit). Lowering it takes effect as sets are returned.
func (a *Arena) SetLimit(limit int64) {
	if limit <= 0 {
		limit = DefaultArenaLimit
	}
	a.mu.Lock()
	a.limit = limit
	a.mu.Unlock()
}

// ArenaStats is a point-in-time view of an arena.
type ArenaStats struct {
	// Bytes is the memory pinned by free buffer sets and scratch.
	Bytes int64
	// Sets is the number of free buffer sets.
	Sets int
	// Outstanding counts sets and scratches checked out right now.
	Outstanding int
	// Misses counts checkouts that had to allocate: an empty free list,
	// or no free set large enough.
	Misses uint64
	// Limit is the retained-bytes bound.
	Limit int64
}

// Stats snapshots the arena's gauges.
func (a *Arena) Stats() ArenaStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return ArenaStats{Bytes: a.retained, Sets: len(a.sets), Outstanding: a.out, Misses: a.misses, Limit: a.limit}
}

// Get checks out a buffer set whose Buf has capacity for n bytes (its
// length is the caller's to set; the request batch comes back empty with
// its capacity kept). It picks the smallest free set that fits, so
// mixed-size comparisons do not trade buffers; when none fits it
// allocates, recycling the request batch of the largest free set.
func (a *Arena) Get(n int) *BufSet {
	a.mu.Lock()
	best := -1
	for i, s := range a.sets {
		if cap(s.Buf) >= n && (best < 0 || cap(s.Buf) < cap(a.sets[best].Buf)) {
			best = i
		}
	}
	fits := best >= 0
	if !fits {
		for i, s := range a.sets {
			if best < 0 || cap(s.Buf) > cap(a.sets[best].Buf) {
				best = i
			}
		}
	}
	var s *BufSet
	if best >= 0 {
		s = a.sets[best]
		last := len(a.sets) - 1
		a.sets[best] = a.sets[last]
		a.sets[last] = nil
		a.sets = a.sets[:last]
		a.retained -= s.bytes()
	}
	if !fits {
		a.misses++
	}
	a.out++
	a.mu.Unlock()

	if s == nil {
		s = &BufSet{}
	}
	if cap(s.Buf) < n {
		s.Buf = make([]byte, n)
	}
	s.Buf, s.Reqs = s.Buf[:cap(s.Buf)], s.Reqs[:0]
	return s
}

// poisonPut makes Put overwrite what it takes back, so a use after return
// reads garbage at once instead of whenever the set is next reused. Only
// tests set it (export_test.go).
var poisonPut atomic.Bool

// Put returns a set checked out with Get. The caller must not touch the
// set (or any slice of its buffers) afterwards.
func (a *Arena) Put(s *BufSet) {
	if s == nil {
		return
	}
	if poisonPut.Load() {
		buf := s.Buf[:cap(s.Buf)]
		for i := range buf {
			buf[i] = 0xDB
		}
		clear(s.Reqs[:cap(s.Reqs)])
	}
	n := s.bytes()
	a.mu.Lock()
	if a.takeBack(n) {
		a.sets = append(a.sets, s)
	}
	a.mu.Unlock()
}

// takeBack books the return of a checked-out item of n bytes and reports
// whether the free list may keep it: not if it is oversize, not if it
// would take the retained total past the limit. Caller holds a.mu.
func (a *Arena) takeBack(n int64) bool {
	a.out--
	if n > MaxSetBytes || a.retained+n > a.limit {
		return false
	}
	a.retained += n
	return true
}

// getScratch checks out one coalescer plan scratch.
func (a *Arena) getScratch() *coalesceScratch {
	a.mu.Lock()
	var sc *coalesceScratch
	if last := len(a.scratch) - 1; last >= 0 {
		sc = a.scratch[last]
		a.scratch[last] = nil
		a.scratch = a.scratch[:last]
		a.retained -= sc.bytes()
	} else {
		a.misses++
	}
	a.out++
	a.mu.Unlock()
	if sc == nil {
		sc = &coalesceScratch{}
	}
	return sc
}

// putScratch returns a scratch under the same bound as Put.
func (a *Arena) putScratch(sc *coalesceScratch) {
	n := sc.bytes()
	a.mu.Lock()
	if a.takeBack(n) {
		a.scratch = append(a.scratch, sc)
	}
	a.mu.Unlock()
}

// Release drops both free lists, leaving the arena empty but usable, and
// reports what was still checked out — a buffer set some comparison never
// returned. The owner of the ring calls it at shutdown.
func (a *Arena) Release() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sets, a.scratch, a.retained = nil, nil, 0
	if a.out != 0 {
		return fmt.Errorf("aio: arena released with %d buffer sets still checked out", a.out)
	}
	return nil
}

// arenaOwner is implemented by backends that carry a stage-2 arena.
type arenaOwner interface {
	Arena() *Arena
}

// ArenaOf returns the arena a backend carries — a Uring's own, a
// Coalescing's (its inner ring's) — or nil for backends without one.
func ArenaOf(b Backend) *Arena {
	if o, ok := b.(arenaOwner); ok {
		return o.Arena()
	}
	return nil
}
