package aio

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// BufSet is one recyclable set: the request batch of one source's extents
// in one pipeline window and the runs those requests price as, with Buf
// unused (the extents land as views) — or, with the batches unused, a
// buffer its holder fills: a differential comparison's manifest bytes. A
// set belongs to whoever checked it out of an Arena until it is put back;
// the arena never looks inside it.
type BufSet struct {
	Buf  []byte
	Reqs []ReadReq
	Runs []ReadReq
}

// readReqBytes is the in-memory size of one ReadReq (offset, length,
// slice header, tag), for the arena's byte accounting.
const readReqBytes = 48

// bytes is the memory the set pins while it sits in the free list.
func (s *BufSet) bytes() int64 {
	return int64(cap(s.Buf)) + readReqBytes*int64(cap(s.Reqs)+cap(s.Runs))
}

// MaxSetBytes is the largest set an arena keeps: a manifest buffer of
// 18 MiB holds the 28-byte entries of some 670 000 chunks (a 2.6 GiB
// checkpoint at 4 KiB chunks), and a window's request batches are far
// smaller. A larger set is allocated per use and dropped on return.
const MaxSetBytes = 2 * (9 << 20)

// DefaultArenaLimit bounds an arena nobody sized: sixteen of its largest
// sets, room for the manifests and request batches of the comparisons
// that share it.
const DefaultArenaLimit = 8 * 2 * MaxSetBytes

// Arena is the comparison buffer arena: a bounded free list of sets
// (stage 2's window requests, manifest buffers)
// that outlives the comparisons drawing on it, so a steady stream of
// comparisons allocates no request batches and no buffers at all. It
// lives as long as the ring that owns it (Uring.Arena) — a service
// plane's, or the process-wide Default ring's — the way io_uring
// registered buffers live with their ring.
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
	retained int64 // bytes pinned by the free list
	out      int   // sets checked out and not yet returned
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
	// Bytes is the memory pinned by free buffer sets.
	Bytes int64
	// Sets is the number of free buffer sets.
	Sets int
	// Outstanding counts sets checked out right now.
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

// Get checks out a set whose Buf has capacity for n bytes (Get(0) for a
// set of request batches; Buf's length is the caller's to set, the request
// batches come back empty with their capacity kept). It picks the smallest free set that fits, so
// mixed-size comparisons do not trade buffers; when none fits it
// allocates, recycling the request batches of the largest free set.
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
	s.Buf, s.Reqs, s.Runs = s.Buf[:cap(s.Buf)], s.Reqs[:0], s.Runs[:0]
	return s
}

// poisonPut makes Put overwrite what it takes back, so a use after return
// reads garbage at once instead of whenever the set is next reused. Only
// tests set it (export_test.go).
var poisonPut atomic.Bool

// Put returns a set checked out with Get. The caller must not touch the
// set (or any slice of its buffers) afterwards. Its requests are dropped:
// one may hold a view of a file mapping (pfs.File.Land) that is gone by
// the set's next use.
func (a *Arena) Put(s *BufSet) {
	if s == nil {
		return
	}
	clear(s.Reqs[:cap(s.Reqs)])
	if poisonPut.Load() {
		buf := s.Buf[:cap(s.Buf)]
		for i := range buf {
			buf[i] = 0xDB
		}
	}
	n := s.bytes()
	a.mu.Lock()
	a.out--
	if n <= MaxSetBytes && a.retained+n <= a.limit { // else dropped for the collector
		a.retained += n
		a.sets = append(a.sets, s)
	}
	a.mu.Unlock()
}

// Release drops the free list, leaving the arena empty but usable, and
// reports what was still checked out — a buffer set some comparison never
// returned. The owner of the ring calls it at shutdown.
func (a *Arena) Release() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.sets, a.retained = nil, 0
	if a.out != 0 {
		return fmt.Errorf("aio: arena released with %d buffer sets still checked out", a.out)
	}
	return nil
}
