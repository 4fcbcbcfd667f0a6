package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
)

// serialSum is the depth-1 closed form: no overlap at all.
func serialSum(ios, comps []time.Duration) time.Duration {
	var total time.Duration
	for i := range ios {
		total += ios[i] + comps[i]
	}
	return total
}

// doubleBuffer is the depth-2 closed form from the package doc:
// io_0 + Σ_{i≥1} max(io_i, comp_{i-1}) + comp_last.
func doubleBuffer(ios, comps []time.Duration) time.Duration {
	total := ios[0]
	for i := 1; i < len(ios); i++ {
		if ios[i] > comps[i-1] {
			total += ios[i]
		} else {
			total += comps[i-1]
		}
	}
	return total + comps[len(comps)-1]
}

// TestVirtualPipelineClosedForms is the recurrence property test: for
// random slice workloads the depth-N recurrence must reduce to the serial
// sum at depth 1 and the classic double-buffer formula at depth 2, and
// deeper pipelines can only help, bounded below by either stage alone.
func TestVirtualPipelineClosedForms(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	dur := func() time.Duration {
		if rng.Intn(8) == 0 {
			return 0 // degenerate stages must not break the recurrence
		}
		return time.Duration(rng.Intn(1000)) * time.Microsecond
	}
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(12)
		ios := make([]time.Duration, n)
		comps := make([]time.Duration, n)
		var sumIO, sumComp time.Duration
		for i := 0; i < n; i++ {
			ios[i], comps[i] = dur(), dur()
			sumIO += ios[i]
			sumComp += comps[i]
		}
		feed := func(depth int) time.Duration {
			vp := NewVirtualPipeline(depth)
			for i := 0; i < n; i++ {
				vp.Advance(ios[i], comps[i])
			}
			return vp.Total()
		}
		d1, d2, d4 := feed(1), feed(2), feed(4)
		if want := serialSum(ios, comps); d1 != want {
			t.Fatalf("trial %d: depth-1 total %v, serial sum %v", trial, d1, want)
		}
		if want := doubleBuffer(ios, comps); d2 != want {
			t.Fatalf("trial %d: depth-2 total %v, closed form %v", trial, d2, want)
		}
		if d4 > d2 || d2 > d1 {
			t.Fatalf("trial %d: depth must not hurt: d1=%v d2=%v d4=%v", trial, d1, d2, d4)
		}
		lower := sumIO
		if sumComp > lower {
			lower = sumComp
		}
		if d4 < lower {
			t.Fatalf("trial %d: depth-4 total %v below stage bound %v", trial, d4, lower)
		}
	}
}

// TestRunErrorPathsSetWall is the regression test for the error-path
// stats fix: Stats.Wall used to be set only on success.
func TestRunErrorPathsSetWall(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 1<<20)
	cfg := Config{Backend: aio.NewUring(16), Device: device.GPUModel(), SliceBytes: 32 << 10}

	boom := errors.New("boom")
	stats, err := Run(context.Background(), pairPlan(fa, fb, pairsEvery(32, 4096, 8192)), cfg, func(int, Job, []byte, []byte) (time.Duration, error) {
		return 0, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("compute error = %v", err)
	}
	if stats.Wall <= 0 {
		t.Errorf("compute-error stats.Wall = %v, want > 0", stats.Wall)
	}

	// Read error: a negative offset is rejected by the backend.
	bad := []chunkPair{{Index: 0, OffA: -4096, OffB: 0, Len: 4096}}
	stats, err = Run(context.Background(), pairPlan(fa, fb, bad), cfg, func(int, Job, []byte, []byte) (time.Duration, error) {
		return 0, nil
	})
	if err == nil {
		t.Fatal("read error not propagated")
	}
	if stats.Wall <= 0 {
		t.Errorf("read-error stats.Wall = %v, want > 0", stats.Wall)
	}
}

func TestRunDepths(t *testing.T) {
	fa, fb, da, _ := twoFiles(t, 1<<20)
	pairs := pairsEvery(64, 4096, 8192)
	var prev time.Duration
	for _, depth := range []int{1, 2, 4} {
		u := aio.NewUring(16)
		cfg := Config{Backend: u, Device: device.GPUModel(), SliceBytes: 32 << 10, Depth: depth}
		stats, err := Run(context.Background(), pairPlan(fa, fb, pairs), cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
			p := pairs[j.Index]
			if int64(len(a)) != int64(p.Len) || a[0] != da[p.OffA] {
				t.Errorf("depth %d: chunk %d misdelivered", depth, p.Index)
			}
			return 50 * time.Microsecond, nil
		})
		if err != nil {
			t.Fatalf("depth %d: %v", depth, err)
		}
		if stats.Slices < 2 {
			t.Fatalf("depth %d: only %d slices", depth, stats.Slices)
		}
		if depth > 1 && stats.PipelineVirtual > prev {
			t.Errorf("depth %d pipeline %v slower than shallower %v", depth, stats.PipelineVirtual, prev)
		}
		prev = stats.PipelineVirtual
	}
}

// TestSteadyStateSliceAllocs: once the page cache and the request batches'
// free list are warm, each additional slice through the pipeline performs
// no heap allocations, through every read engine of the clustered table
// (the ring, the ring with coalescing, the serial pair) at every depth.
// Per-Run fixed costs (the reader, the verifier) are cancelled by
// differencing an N-slice run against a 2N-slice run.
func TestSteadyStateSliceAllocs(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 1<<20)
	const chunk = 4096
	const perSlice = 8 // 8 chunks × 4 KiB = one 32 KiB slice
	const extra = 8    // slices added by the longer run
	pairs := pairsEvery(2*extra*perSlice, chunk, 8192)
	// Plans are inputs: built once, outside the measured runs.
	plans := map[int]*Plan{extra: pairPlan(fa, fb, pairs[:extra*perSlice]), 2 * extra: pairPlan(fa, fb, pairs)}
	for _, be := range []struct {
		name    string
		backend aio.Backend
		maxGap  int
	}{
		{"uring", aio.NewUring(64), 0},
		{"coalescing", aio.NewUring(64), 16 << 10},
		{"serial", serial{aio.NewUring(64)}, 0},
	} {
		for _, depth := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/depth%d", be.name, depth), func(t *testing.T) {
				cfg := Config{Backend: be.backend, MaxGap: be.maxGap, Device: device.GPUModel(), SliceBytes: perSlice * chunk, Depth: depth}
				runN := func(n int) {
					_, err := Run(context.Background(), plans[n], cfg, func(int, Job, []byte, []byte) (time.Duration, error) {
						return 0, nil
					})
					if err != nil {
						t.Fatal(err)
					}
				}
				runN(2 * extra) // warm the page cache and the batch free list

				short := testing.AllocsPerRun(5, func() { runN(extra) })
				long := testing.AllocsPerRun(5, func() { runN(2 * extra) })
				if perExtraSlice := (long - short) / extra; perExtraSlice > 0.5 {
					t.Errorf("steady-state allocations = %.2f per slice, want 0 (short run %.1f, long run %.1f)",
						perExtraSlice, short, long)
				}
			})
		}
	}
}
