package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
)

// TestRangesBalancedAndContiguous: the cut points always tile [0, n)
// without empty ranges, respect the range cap, and balance bytes.
func TestRangesBalancedAndContiguous(t *testing.T) {
	cases := []struct {
		name      string
		lens      []int
		maxRanges int
		want      int // expected range count
	}{
		{"one range when serial", repeat(4096, 100), 1, 1},
		{"small batch is not worth a dispatch", repeat(4096, 10), 8, 1},
		{"4 KiB chunks group into 64 KiB ranges", repeat(4096, 64), 8, 4},
		{"capped by max ranges", repeat(64<<10, 128), 8, 8},
		{"never more ranges than items", repeat(1<<20, 3), 8, 3},
		{"ragged tail", append(repeat(64<<10, 15), 100), 4, 4},
	}
	for _, c := range cases {
		bounds := Ranges(nil, len(c.lens), func(i int) int { return c.lens[i] }, c.maxRanges)
		if got := len(bounds) - 1; got != c.want {
			t.Errorf("%s: %d ranges, want %d (%v)", c.name, got, c.want, bounds)
		}
		if bounds[0] != 0 || bounds[len(bounds)-1] != len(c.lens) {
			t.Errorf("%s: bounds %v do not span [0, %d)", c.name, bounds, len(c.lens))
		}
		var total, worst int64
		for _, l := range c.lens {
			total += int64(l)
		}
		for r := 0; r+1 < len(bounds); r++ {
			if bounds[r] >= bounds[r+1] {
				t.Errorf("%s: empty range %d in %v", c.name, r, bounds)
			}
			var sum int64
			for _, l := range c.lens[bounds[r]:bounds[r+1]] {
				sum += int64(l)
			}
			worst = max(worst, sum)
		}
		if nr := int64(len(bounds) - 1); worst > total/nr+int64(slicesMax(c.lens)) {
			t.Errorf("%s: heaviest range %d bytes of %d over %d ranges", c.name, worst, total, nr)
		}
	}
}

func repeat(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func slicesMax(v []int) int {
	m := 0
	for _, x := range v {
		m = max(m, x)
	}
	return m
}

// TestRunParallelDeliversEveryPairOnce: on a pool, every pair reaches
// Compute exactly once with the right bytes, calls sharing a range index
// never overlap, range indices stay under MaxRanges, and the virtual
// clock matches the serial run's to the nanosecond.
func TestRunParallelDeliversEveryPairOnce(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 4<<20)
	pairs := pairsEvery(400, 8192, 10240) // 3.2 MiB per side, 256 KiB slices
	dev := device.GPUModel()
	run := func(exec device.Executor) (Stats, []int32) {
		u := aio.NewUring(64)
		fa.Store().EvictAll() // every run prices a cold cache
		seen := make([]int32, len(pairs))
		busy := make([]atomic.Int32, MaxRanges(exec))
		cfg := Config{Backend: u, MaxGap: 16 << 10, Exec: exec, Device: dev, SliceBytes: 256 << 10}
		stats, err := Run(context.Background(), pairPlan(fa, fb, pairs), cfg, func(r int, j Job, a, b []byte) (time.Duration, error) {
			p := pairs[j.Index]
			if busy[r].Add(1) != 1 {
				t.Errorf("range %d entered concurrently", r)
			}
			defer busy[r].Add(-1)
			atomic.AddInt32(&seen[p.Index], 1)
			if !bytes.Equal(a, da[p.OffA:p.OffA+int64(p.Len)]) || !bytes.Equal(b, db[p.OffB:p.OffB+int64(p.Len)]) {
				t.Errorf("pair %d misdelivered", p.Index)
			}
			return dev.CompareRateTime(int64(p.Len)) + time.Duration(p.Index%7), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats, seen
	}
	want, _ := run(device.Serial{})
	for _, workers := range []int{2, 4, 8} {
		pool := device.NewPool(workers)
		got, seen := run(pool)
		pool.Close()
		for i, n := range seen {
			if n != 1 {
				t.Fatalf("%d workers: pair %d computed %d times", workers, i, n)
			}
		}
		got.Wall, want.Wall = 0, 0
		if got != want {
			t.Errorf("%d workers: stats %+v, serial %+v", workers, got, want)
		}
	}
}

// TestRunErrorAndCancelMidSlice: a compute error or a cancellation in the
// middle of a slice comes back as the error of the lowest failing pair,
// leaves no goroutine behind, and returns every request batch to the free
// list.
func TestRunErrorAndCancelMidSlice(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 4<<20)
	pairs := pairsEvery(384, 8192, 10240) // 12 slices of 32 pairs
	pool := device.NewPool(4)
	defer pool.Close()
	u := aio.NewUring(64)
	warm := Config{Backend: u, MaxGap: 16 << 10, Exec: pool, Device: device.GPUModel(), SliceBytes: 256 << 10}
	if _, err := Run(context.Background(), pairPlan(fa, fb, pairs), warm, func(int, Job, []byte, []byte) (time.Duration, error) {
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	idle := freeBatchCount()

	t.Run("compute error", func(t *testing.T) {
		// Every pair from 70 on fails (slice 2, several ranges): the
		// reported error must be pair 70's, whichever range ran first.
		for trial := 0; trial < 20; trial++ {
			_, err := Run(context.Background(), pairPlan(fa, fb, pairs), warm, func(_ int, j Job, _, _ []byte) (time.Duration, error) {
				p := pairs[j.Index]
				if p.Index >= 70 {
					return 0, fmt.Errorf("pair %d: %w", p.Index, errBoom)
				}
				return 0, nil
			})
			if !errors.Is(err, errBoom) || err.Error() != "pair 70: boom" {
				t.Fatalf("trial %d: error %v, want pair 70's", trial, err)
			}
		}
	})
	t.Run("cancel", func(t *testing.T) {
		for trial := 0; trial < 20; trial++ {
			ctx, cancel := context.WithCancel(context.Background())
			cfg := warm
			cfg.Exec = device.Cancelable{Done: ctx.Done(), Inner: pool}
			var once sync.Once
			_, err := Run(ctx, pairPlan(fa, fb, pairs), cfg, func(_ int, j Job, _, _ []byte) (time.Duration, error) {
				p := pairs[j.Index]
				if p.Index >= 100 {
					once.Do(cancel)
				}
				return 0, nil
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("trial %d: error %v, want context.Canceled", trial, err)
			}
		}
	})

	waitGoroutines(t, base)
	if after := freeBatchCount(); after != idle {
		t.Errorf("%d request batches free after the failures, %d before: a failed run must recycle like a clean one", after, idle)
	}
}

// freeBatchCount is the length of the request batches' free list.
func freeBatchCount() int {
	batchFree.Lock()
	defer batchFree.Unlock()
	return len(batchFree.batches)
}

var errBoom = errors.New("boom")

func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutines leaked: %d > %d\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSteadyStateComparisonAllocs pins the marginal cost of one more
// comparison, not only of one more slice: with the free list warm a whole
// Run allocates no request batches — its bytes are the fixed control state (channels,
// the slice table, the dispatch closure), a fraction of a percent of the
// 1 MiB of slice buffers it cycles through — and each extra slice costs at
// most the pool's two allocations per dispatch (task + completion channel).
func TestSteadyStateComparisonAllocs(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 4<<20)
	const chunk, perSlice, extra = 8192, 32, 4 // 256 KiB slices, 4 ranges each
	pairs := pairsEvery(2*extra*perSlice, chunk, 10240)
	pool := device.NewPool(4)
	defer pool.Close()
	u := aio.NewUring(64)
	cfg := Config{Backend: u, MaxGap: 16 << 10, Exec: pool, Device: device.GPUModel(), SliceBytes: perSlice * chunk, Depth: 2}
	dispatches := 0
	// Plans are inputs: built once, outside the measured runs.
	plans := map[int]*Plan{extra: pairPlan(fa, fb, pairs[:extra*perSlice]), 2 * extra: pairPlan(fa, fb, pairs)}
	runN := func(slices int) {
		_, err := Run(context.Background(), plans[slices], cfg, func(r int, p Job, a, b []byte) (time.Duration, error) {
			if r > 0 && p.Index%perSlice == perSlice-1 {
				dispatches++ // the last pair of a slice, seen from a helper range
			}
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	runN(2 * extra) // warm the page cache and the batch free list
	if dispatches == 0 {
		t.Fatal("slices were not split into ranges: the dispatch cost is not being measured")
	}

	var before, after runtime.MemStats
	const runs = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		runN(extra)
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	if perRun > 8<<10 {
		t.Errorf("a warm comparison allocates %d bytes; its slices are %d bytes — they must land as views", perRun, 2*2*perSlice*chunk)
	}

	short := testing.AllocsPerRun(5, func() { runN(extra) })
	long := testing.AllocsPerRun(5, func() { runN(2 * extra) })
	if perSliceAllocs := (long - short) / extra; perSliceAllocs > 2.5 {
		t.Errorf("%.2f allocations per extra slice, want ≤ 2 (the pool's task and channel); short %.1f, long %.1f",
			perSliceAllocs, short, long)
	}
}
