package aio

import (
	"bytes"
	"context"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/pfs"
)

// recordingBackend notes the (offset, length) of every request the
// coalescer prices, in order, and prices them through a real ring.
type recordingBackend struct {
	*Uring
	mu   sync.Mutex
	seen [][2]int64
}

func (r *recordingBackend) note(reqs []ReadReq) {
	r.mu.Lock()
	for i := range reqs {
		r.seen = append(r.seen, [2]int64{reqs[i].Off, int64(reqs[i].Len)})
	}
	r.mu.Unlock()
}

func (r *recordingBackend) Price(ctx context.Context, f *pfs.File, reqs []ReadReq) (pfs.Cost, time.Duration, error) {
	r.note(reqs)
	return r.Uring.Price(ctx, f, reqs)
}

func (r *recordingBackend) PricePair(ctx context.Context, fA, fB *pfs.File, a, b []ReadReq) (pfs.Cost, time.Duration, error) {
	r.note(a)
	r.note(b)
	return r.Uring.PricePair(ctx, fA, fB, a, b)
}

// referencePlan is the planner written plainly: sort by offset, merge while
// the next request starts within maxGap of the run's end. What it returns
// is all the inner backend may ever be asked for.
func referencePlan(reqs []ReadReq, maxGap int) [][2]int64 {
	if len(reqs) == 0 {
		return nil
	}
	sorted := append([]ReadReq(nil), reqs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Off < sorted[j].Off })
	var runs [][2]int64
	off, end := sorted[0].Off, sorted[0].Off+int64(sorted[0].Len)
	for _, r := range sorted[1:] {
		if r.Off <= end+int64(maxGap) {
			end = max(end, r.Off+int64(r.Len))
			continue
		}
		runs = append(runs, [2]int64{off, end - off})
		off, end = r.Off, r.Off+int64(r.Len)
	}
	return append(runs, [2]int64{off, end - off})
}

const sentinel = 0xA5

// randomBatch builds a request set that mixes every layout the planner
// and the landing must tell apart. Buffers are windows of one
// sentinel-filled arena (with guard bytes between groups) or separate
// allocations with spare capacity.
func randomBatch(rng *rand.Rand, fileSize int) (reqs []ReadReq, arena []byte) {
	arena = bytes.Repeat([]byte{sentinel}, 1<<20)
	pos := 0
	window := func(n int) []byte {
		w := arena[pos : pos+n] // capacity runs on to the end of the arena
		pos += n
		return w
	}
	add := func(off int64, buf []byte) {
		reqs = append(reqs, ReadReq{Off: off, Len: len(buf), Buf: buf, Tag: len(reqs)})
	}
	for g := rng.Intn(6) + 1; g > 0; g-- {
		k := rng.Intn(5) + 1
		n := (rng.Intn(8) + 1) * 512
		base := int64(rng.Intn(fileSize - 16*n - 64<<10))
		switch rng.Intn(7) {
		case 0: // adjacent in the file and in memory, in order
			for i := 0; i < k; i++ {
				add(base+int64(i*n), window(n))
			}
		case 1: // adjacent in the file, memory reversed
			bufs := make([][]byte, k)
			for i := range bufs {
				bufs[i] = window(n)
			}
			for i := 0; i < k; i++ {
				add(base+int64(i*n), bufs[k-1-i])
			}
		case 2: // adjacent in memory, file reversed
			for i := 0; i < k; i++ {
				add(base+int64((k-1-i)*n), window(n))
			}
		case 3: // duplicates of one extent, separate buffers
			for i := 0; i < k; i++ {
				add(base, window(n))
			}
		case 4: // overlapping extents
			for i := 0; i < k; i++ {
				add(base+int64(i*n/2), window(n))
			}
		case 5: // holes: some bridged by the gap limit, some not
			off := base
			for i := 0; i < k; i++ {
				add(off, window(n))
				off += int64(n + rng.Intn(24<<10))
			}
		case 6: // separate allocations with spare capacity
			for i := 0; i < k; i++ {
				buf := bytes.Repeat([]byte{sentinel}, n+rng.Intn(4096))
				add(base+int64(i*n), buf[:n])
			}
		}
		pos += 64 // guard bytes: nothing may write between groups
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs, arena
}

// TestCoalescingLandsLikeUncoalescedReads is the planner's property test:
// whatever the layout, a coalesced read leaves every request with exactly
// the bytes an uncoalesced read would give it, writes no byte outside a
// request, and asks the inner backend to price exactly the reference
// planner's runs — so op counts, bytes and Cost cannot have moved.
func TestCoalescingLandsLikeUncoalescedReads(t *testing.T) {
	const fileSize = 2 << 20
	const maxGap = 16 << 10
	store, f, data := newFile(t, fileSize)
	rec := &recordingBackend{Uring: NewUring(64)}
	plain := NewUring(64)
	c := NewCoalescing(rec, maxGap)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(12))

	for trial := 0; trial < 300; trial++ {
		reqs, arena := randomBatch(rng, fileSize)
		written := make([]bool, len(arena))
		for _, r := range reqs {
			if lo := offsetIn(arena, r.Buf); lo >= 0 {
				for i := lo; i < lo+r.Len; i++ {
					written[i] = true
				}
			}
		}

		rec.seen = rec.seen[:0]
		store.EvictAll()
		var cost pfs.Cost
		var err error
		var want [][2]int64
		if trial%2 == 0 || len(reqs) < 2 {
			cost, _, err = ReadBatch(ctx, c, f, reqs)
			want = referencePlan(reqs, maxGap)
			if len(reqs) == 1 {
				want = [][2]int64{{reqs[0].Off, int64(reqs[0].Len)}}
			}
		} else {
			h := len(reqs) / 2
			cost, _, err = readBatchPair(ctx, c, f, f, reqs[:h], reqs[h:])
			want = append(referencePlan(reqs[:h], maxGap), referencePlan(reqs[h:], maxGap)...)
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		verifyFilled(t, data, reqs)
		for _, r := range reqs {
			if spare := r.Buf[r.Len:cap(r.Buf)]; offsetIn(arena, r.Buf) < 0 && bytes.Count(spare, []byte{sentinel}) != len(spare) {
				t.Fatalf("trial %d: request %d: spare capacity written", trial, r.Tag)
			}
		}
		for i, b := range arena {
			if !written[i] && b != sentinel {
				t.Fatalf("trial %d: arena byte %d outside every request was written", trial, i)
			}
		}
		if !equalRuns(rec.seen, want) {
			t.Fatalf("trial %d: inner backend asked for %v, the reference planner for %v", trial, rec.seen, want)
		}

		// The same merged extents, priced uncoalesced from a cold cache,
		// cost what the coalescer reported.
		store.EvictAll()
		ref := make([]ReadReq, len(want))
		for i, w := range want {
			ref[i] = ReadReq{Off: w[0], Len: int(w[1]), Buf: make([]byte, w[1]), Tag: i}
		}
		refCost, _, err := plain.Price(ctx, f, ref)
		if err != nil {
			t.Fatal(err)
		}
		if cost != refCost {
			t.Fatalf("trial %d: cost %+v, the reference planner's extents cost %+v", trial, cost, refCost)
		}
	}
}

// offsetIn returns where buf starts inside arena, or -1 for a buffer
// allocated elsewhere. Arena windows keep their capacity to the arena's
// end, so the capacity names the one position to test by identity.
func offsetIn(arena, buf []byte) int {
	if cap(buf) > len(arena) {
		return -1
	}
	if at := len(arena) - cap(buf); &arena[at] == &buf[0] {
		return at
	}
	return -1
}

func equalRuns(a, b [][2]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestArenaBoundsAndRelease pins the arena's contract: checkouts reuse
// the smallest set that fits, retained bytes never pass the limit,
// oversize sets are dropped, and Release empties it and reports leaks.
func TestArenaBoundsAndRelease(t *testing.T) {
	a := NewArena(3 << 20)
	s1 := a.Get(2 << 20)
	s2 := a.Get(256 << 10)
	if st := a.Stats(); st.Outstanding != 2 || st.Misses != 2 || st.Bytes != 0 {
		t.Fatalf("after two cold checkouts: %+v", st)
	}
	a.Put(s1)
	a.Put(s2)
	if st := a.Stats(); st.Sets != 2 || st.Bytes != 2<<20+256<<10 {
		t.Fatalf("after returns: %+v", st)
	}
	if got := a.Get(100 << 10); got != s2 {
		t.Error("checkout did not pick the smallest set that fits")
	} else {
		a.Put(got)
	}
	if got := a.Get(1 << 20); got != s1 {
		t.Error("checkout did not reuse the fitting set")
	} else {
		a.Put(got)
	}
	if st := a.Stats(); st.Misses != 2 {
		t.Errorf("warm checkouts counted as misses: %+v", st)
	}

	// A third 2 MiB set would pass the 3 MiB limit: dropped on return.
	s3 := a.Get(2 << 20)
	a.Put(a.Get(2 << 20))
	a.Put(s3)
	if st := a.Stats(); st.Bytes > st.Limit {
		t.Errorf("retained %d bytes over the %d limit", st.Bytes, st.Limit)
	}
	// Oversize sets are never kept.
	big := NewArena(1 << 40)
	big.Put(big.Get(MaxSetBytes + 1))
	if st := big.Stats(); st.Sets != 0 || st.Bytes != 0 {
		t.Errorf("oversize set retained: %+v", st)
	}

	held := a.Get(1)
	if err := a.Release(); err == nil {
		t.Error("Release with a set checked out reported no leak")
	}
	a.Put(held)
	if err := a.Release(); err != nil {
		t.Errorf("Release after the set came back: %v", err)
	}
	if st := a.Stats(); st.Bytes != 0 || st.Sets != 0 {
		t.Errorf("released arena still retains: %+v", st)
	}
}
