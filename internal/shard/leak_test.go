package shard

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/pfs"
)

// TestShardLeavesNothingBehind is the single-node leak table
// (internal/compare/leak_test.go) for the sharded path, which now draws on
// the same ring: whatever way a sharded comparison ends, every container
// is closed, the contention table is off the store and the goroutines are
// gone.
func TestShardLeavesNothingBehind(t *testing.T) {
	ring := aio.NewUring(256)
	base := testOpts()
	base.Backend = ring
	e := newEnv(t, 64<<10, base, perturbUniform)
	if err := e.store.SetStriping(pfs.Striping{Targets: 4, StripeBytes: 8 * testChunk}); err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, cfg Config, opts compare.Options) (*compare.Result, *Stats, error) {
		e.store.EvictAll()
		return Compare(ctx, e.store, e.nameA, e.nameB, cfg, opts)
	}
	steal := Config{Workers: 4, Stealing: true, Budget: 4 * testChunk}
	if _, _, err := run(context.Background(), steal, base); err != nil { // warm the pool and the free lists
		t.Fatal(err)
	}
	metaB := compare.MetadataName(e.nameB)
	blip := faults.New(1, faults.Rule{Kind: faults.TransientRead, Name: metaB})

	rows := map[string]func(t *testing.T){
		"success": func(t *testing.T) {
			if _, _, err := run(context.Background(), steal, base); err != nil {
				t.Fatal(err)
			}
		},
		"error-mid-load": func(t *testing.T) { // member A's metadata set is out when B's read fails
			e.store.SetFaultHook(faults.New(1, faults.Rule{Kind: faults.PermanentRead, Name: metaB, Count: -1}))
			if _, _, err := run(context.Background(), steal, base); err == nil {
				t.Fatal("a metadata file that cannot be read compared clean")
			}
		},
		"retried-load": func(t *testing.T) { // the load step runs twice
			e.store.SetFaultHook(blip)
			if _, _, err := run(context.Background(), steal, base); err != nil || blip.Stats().ReadErrs != 1 {
				t.Fatalf("err = %v after %d injected faults, want one transient fault retried away", err, blip.Stats().ReadErrs)
			}
		},
		"canceled-mid-unit": func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			e.store.SetFaultHook(&cancelHook{name: e.nameB, after: 4, cancel: cancel})
			if _, _, err := run(ctx, steal, base); !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
		},
		"permanent-read-degraded": func(t *testing.T) {
			opts := base
			opts.Degrade = true
			e.store.SetFaultHook(faults.New(1, faults.Rule{Kind: faults.PermanentRead, Name: e.nameB, After: 8, Count: -1}))
			res, _, err := run(context.Background(), steal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Degraded || res.UnverifiedChunks == 0 {
				t.Fatalf("Degraded = %v, %d unverified; want a degraded report", res.Degraded, res.UnverifiedChunks)
			}
		},
		"chaos-kill-coordinator-drain": func(t *testing.T) {
			cfg := Config{Workers: 4, Budget: 4 * testChunk, Chaos: Chaos{Enabled: true, Worker: 0, AfterUnits: 0}}
			_, stats, err := run(context.Background(), cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			if stats.CoordinatorUnits == 0 {
				t.Fatal("the coordinator drained nothing")
			}
		},
	}
	for name, row := range rows {
		t.Run(name, func(t *testing.T) {
			defer e.store.SetFaultHook(nil)
			// The baseline is this row's own: taken inside it (so the
			// subtest's goroutine is in it) once the goroutines of the
			// comparison before — the executor's, past their last Done but
			// still exiting when Compare returns; the engine starts none —
			// are gone.
			goroutines := settledGoroutines()
			row(t)
			if n := e.store.OpenHandles(); n != 0 {
				t.Errorf("%d reader handles leaked", n)
			}
			if n := e.store.TargetSharers(0); n != e.store.Sharers() {
				t.Errorf("per-target contention table still installed (target 0 at %d sharers)", n)
			}
			waitGoroutines(t, goroutines)
		})
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// 25 ms.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still := 0; still < 5; still++ {
		time.Sleep(5 * time.Millisecond)
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		}
	}
	return n
}

// dataReads counts the reads a store sees on the named files.
type dataReads struct {
	faults.Nop
	names [2]string
	n     atomic.Int64
}

func (h *dataReads) BeforeRead(name string, off int64, n int) error {
	if name == h.names[0] || name == h.names[1] {
		h.n.Add(1)
	}
	return nil
}

// TestShardWorkerReadsCoalescedWindows proves the worker is on the
// coalescing reader: on the dense parity shape (every chunk a candidate,
// so a unit's chunks are adjacent) the two containers see at most one read
// per side per window — not one per side per candidate chunk, the shape of
// a per-chunk read loop.
func TestShardWorkerReadsCoalescedWindows(t *testing.T) {
	var sh dettest.Shape
	for _, s := range dettest.Shapes() {
		if s.Name == "many-slices" {
			sh = s
		}
	}
	e := newParityEnv(t, sh)
	opts := e.opts
	opts.Exec = device.Serial{}
	hook := &dataReads{names: [2]string{e.names[0], e.names[1]}}
	e.store.SetFaultHook(hook)
	defer e.store.SetFaultHook(nil)
	reads := func(fn func()) int64 {
		e.store.EvictAll()
		n0 := hook.n.Load()
		fn()
		return hook.n.Load() - n0
	}
	open := reads(func() {
		for _, name := range hook.names {
			r, _, err := ckpt.OpenReader(e.store, name)
			if err != nil {
				t.Fatal(err)
			}
			r.Close()
		}
	})
	// 16-chunk units in windows of 4 chunks per side.
	const unitChunks, windowChunks = 16, 4
	cfg := Config{Workers: 4, Stealing: true, SubtreeChunks: unitChunks, Budget: int64(2 * windowChunks * sh.Chunk)}
	var res *compare.Result
	var stats *Stats
	stage2 := reads(func() {
		var err error
		if res, stats, err = Compare(context.Background(), e.store, e.names[0], e.names[1], cfg, opts); err != nil {
			t.Fatal(err)
		}
	}) - open
	if res.CandidateChunks != res.TotalChunks {
		t.Fatalf("shape is not dense: %d of %d chunks are candidates", res.CandidateChunks, res.TotalChunks)
	}
	windows := int64(stats.Units * unitChunks / windowChunks)
	if stage2 <= 0 || stage2 > 2*windows {
		t.Errorf("%d stage-2 reads of the containers for %d windows (%d candidate chunks): want at most 2 per window",
			stage2, windows, res.CandidateChunks)
	}
}
