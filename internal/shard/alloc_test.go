package shard

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/aio"
	"repro/internal/dettest"
	"repro/internal/device"
)

// TestWarmShardedComparisonAllocatesItsAnswer is the sharded row of
// compare's TestWarmComparisonAllocatesItsAnswer, on its sparse shape (a
// few divergent elements in 12 MiB at 4 KiB chunks, 98 KB of metadata a
// member): a warm sharded comparison allocates its answer plus the same
// fixed budget — its members' metadata comes out of the arena once for all
// its work units, and the units' kernel scratch out of the free list. The
// row is the default four workers and nine work units: besides those, a
// sharded comparison allocates a stage-2 view for each worker that runs a
// unit and a pipeline's control state per unit, which grow with its shape
// and are not what this pins.
func TestWarmShardedComparisonAllocatesItsAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("writes two 12 MiB checkpoints")
	}
	ring := aio.NewUring(256)
	opts := testOpts()
	opts.Backend = aio.NewCoalescing(ring, 0)
	e := newEnv(t, 1<<20, opts, func(_ int, data []byte) {
		for i := 7; i < len(data)/4; i += 400_009 {
			bumpF32(data, i)
		}
	})
	cfg := Config{Stealing: true}
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

// TestIdleWorkersCostNextToNothing: the fleet size is a number a client
// picks, so what a worker costs before a unit reaches it has to be small
// and has a ceiling. Twelve units on 4 096 workers allocate under 4 MB —
// a clock and a deque each, a stage-2 view only for the twelve that run
// one — on the caller's goroutine alone; past MaxWorkers the configuration
// is refused before anything is read.
func TestIdleWorkersCostNextToNothing(t *testing.T) {
	opts := testOpts()
	opts.Exec = device.Serial{}
	e := newEnv(t, 64<<10, opts, perturbUniform)
	ctx := context.Background()
	run := func(workers int) *Stats {
		t.Helper()
		_, stats, err := Compare(ctx, e.store, e.nameA, e.nameB, Config{Workers: workers, Stealing: true}, opts)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Units != 12 {
			t.Fatalf("%d units, want the row's 12", stats.Units)
		}
		return stats
	}
	run(4) // the default ring's workers, the arena, the page cache
	goroutines := settledGoroutines() // earlier tests' executors may still be exiting
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	stats := run(MaxWorkers)
	runtime.ReadMemStats(&after)
	if n := runtime.NumGoroutine(); n > goroutines {
		t.Errorf("%d goroutines after a sharded comparison, %d before", n, goroutines)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Errorf("12 units on %d workers allocated %d bytes, want under 4 MiB", MaxWorkers, got)
	} else {
		t.Logf("12 units on %d workers: %d bytes", MaxWorkers, got)
	}
	if len(stats.PerWorker) != MaxWorkers {
		t.Errorf("%d per-worker rows for %d workers", len(stats.PerWorker), MaxWorkers)
	}

	if _, _, err := Compare(ctx, e.store, e.nameA, e.nameB, Config{Workers: MaxWorkers + 1}, opts); err == nil {
		t.Errorf("a fleet of %d workers accepted", MaxWorkers+1)
	}
}
