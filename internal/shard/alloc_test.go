package shard

import (
	"context"
	"testing"

	"repro/internal/aio"
	"repro/internal/dettest"
)

// TestWarmShardedComparisonAllocatesItsAnswer is the sharded row of
// compare's TestWarmComparisonAllocatesItsAnswer, on its sparse shape (a
// few divergent elements in 12 MiB at 4 KiB chunks, 98 KB of metadata a
// member): a warm sharded comparison allocates its answer plus the same
// fixed budget — its members' metadata comes out of the arena once for all
// its work units, and the units' kernel scratch out of the free list. The
// row is two workers and nine work units: besides those, a sharded
// comparison allocates a pipeline's control state and two wire frames per
// unit (≈ 3.5 KB) and a communicator of (workers+1)² links (21 KB here),
// which grow with its shape and are not what this pins.
func TestWarmShardedComparisonAllocatesItsAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("writes two 12 MiB checkpoints")
	}
	ring := aio.NewUring(256, 4)
	defer ring.Close()
	opts := testOpts()
	opts.Backend = aio.NewCoalescing(ring, 0)
	e := newEnv(t, 1<<20, opts, func(_ int, data []byte) {
		for i := 7; i < len(data)/4; i += 400_009 {
			bumpF32(data, i)
		}
	})
	cfg := Config{Workers: 2, Stealing: true}
	dettest.PinWarmAllocs(t, ring.Arena(), func() uint64 {
		res, _, err := Compare(context.Background(), e.store, e.nameA, e.nameB, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.CandidateChunks != 9 {
			t.Fatalf("%d candidate chunks, want the row's 9 work units", res.CandidateChunks)
		}
		return 8 * uint64(res.DiffCount)
	})
}
