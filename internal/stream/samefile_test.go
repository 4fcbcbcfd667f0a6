package stream

import (
	"bytes"
	"context"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/pfs"
)

// countingBackend counts Price calls and the requests they carry,
// delegating to the inner backend.
type countingBackend struct {
	inner   aio.Backend
	batches int32
	reqs    int32
}

func (c *countingBackend) Name() string { return "counting" }

func (c *countingBackend) Price(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	atomic.AddInt32(&c.batches, 1)
	atomic.AddInt32(&c.reqs, int32(len(reqs)))
	return c.inner.Price(ctx, f, reqs)
}

// oneFile creates a single file standing in for the shared CAS pack.
func oneFile(t *testing.T, size int) (*pfs.File, []byte) {
	t.Helper()
	fa, _, da, _ := twoFiles(t, size)
	return fa, da
}

// samePackPairs interleaves A and B extents in one file the way
// differential captures lay them out: A's chunk then B's representative.
func samePackPairs(n, chunk int) []chunkPair {
	pairs := make([]chunkPair, n)
	for i := range pairs {
		base := int64(2 * i * chunk)
		pairs[i] = chunkPair{Index: i, OffA: base, OffB: base + int64(chunk), Len: chunk}
	}
	return pairs
}

func TestRunSameFileMergesBatches(t *testing.T) {
	f, data := oneFile(t, 1<<20)
	const n, chunk = 32, 4096
	pairs := samePackPairs(n, chunk)
	cb := &countingBackend{inner: aio.Mmap{}}
	cfg := Config{Arena: aio.NewArena(0), Backend: cb, Device: device.GPUModel(), SliceBytes: 32 << 10}
	var visited int32
	stats, err := Run(context.Background(), pairPlan(f, f, pairs), cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
		p := pairs[j.Index]
		atomic.AddInt32(&visited, 1)
		if !bytes.Equal(a, data[p.OffA:p.OffA+int64(p.Len)]) {
			t.Errorf("chunk %d: side-A buffer mismatch", p.Index)
		}
		if !bytes.Equal(b, data[p.OffB:p.OffB+int64(p.Len)]) {
			t.Errorf("chunk %d: side-B buffer mismatch", p.Index)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != n {
		t.Errorf("visited %d chunks, want %d", visited, n)
	}
	// SliceBytes bounds one side: the pack holds both sides of every job, so
	// its windows close where the two-file plan's do.
	if want := n * chunk / cfg.SliceBytes; stats.Slices != want {
		t.Errorf("%d slices, want %d: a one-source pair must cut at SliceBytes per side", stats.Slices, want)
	}
	// One merged batch per slice (the two-file path issues two), carrying
	// both sides' requests.
	if got := atomic.LoadInt32(&cb.batches); int(got) != stats.Slices {
		t.Errorf("Price called %d times over %d slices, want one merged batch per slice", got, stats.Slices)
	}
	if got := atomic.LoadInt32(&cb.reqs); got != 2*n {
		t.Errorf("backend saw %d requests, want %d (both sides)", got, 2*n)
	}
	if stats.BytesRead != int64(2*n*chunk) {
		t.Errorf("BytesRead = %d, want %d", stats.BytesRead, 2*n*chunk)
	}
}

func TestRunSameFileCoalescesAcrossSides(t *testing.T) {
	// Adjacent A/B extents in the pack must merge into one PFS op when the
	// batch is issued as a single coalescing read — the whole point of the
	// merged path.
	f, _ := oneFile(t, 1<<20)
	const n, chunk = 16, 4096
	pairs := samePackPairs(n, chunk)
	run := func(backend aio.Backend) int {
		cfg := Config{Arena: aio.NewArena(0), Backend: backend, Device: device.GPUModel(), SliceBytes: 1 << 20}
		stats, err := Run(context.Background(), pairPlan(f, f, pairs), cfg, func(int, Job, []byte, []byte) (time.Duration, error) {
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.ReadCost.Ops + stats.ReadCost.CachedOps
	}
	plain := run(aio.Legacy{})
	merged := run(aio.NewCoalescing(aio.Legacy{}, 16<<10))
	if merged >= plain {
		t.Errorf("coalesced same-file read took %d ops, plain took %d — extents did not merge across sides", merged, plain)
	}
	if merged != 1 {
		t.Errorf("fully adjacent extents should collapse to 1 op, got %d", merged)
	}
}
