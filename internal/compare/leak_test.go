package compare

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// countingCtx decrements a budget on every Err() call and reports
// context.Canceled once it is exhausted (sticky). It lets tests cancel a
// comparison deterministically partway through its sequential step
// sequence without relying on timers. Done() stays open, so only the
// explicit Err checks observe the cancellation — exactly the paths the
// engine contract guarantees.
type countingCtx struct {
	// The embedded parent is the context.
	context.Context
	budget int64
}

func (c *countingCtx) Err() error {
	if atomic.AddInt64(&c.budget, -1) < 0 {
		return context.Canceled
	}
	return nil
}

// errCallsOf runs fn under a counting context with an effectively
// unlimited budget and returns how many Err checks it consumed.
func errCallsOf(t *testing.T, fn func(ctx context.Context) error) int64 {
	t.Helper()
	cc := &countingCtx{Context: context.Background(), budget: 1 << 40}
	if err := fn(cc); err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	return (1 << 40) - atomic.LoadInt64(&cc.budget)
}

// leakEnv builds a perturbed pair so stage 2 genuinely streams data.
func leakEnv(t *testing.T) (*testEnv, Options) {
	t.Helper()
	opts := baseOpts(1e-7, 8<<10)
	pert := synth.DefaultPerturb(7)
	pert.MagLo, pert.MagHi = 1e-3, 1e-2
	env := newEnv(t, 16<<10, opts, pert)
	return env, opts
}

// waitGoroutines polls until the goroutine count drops back to at most
// base, failing after a deadline. Background runtime goroutines can
// linger briefly after a canceled pipeline drains.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 64<<10)
			t.Fatalf("goroutines leaked: %d > %d\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestMembersCloseOnEveryExit: a member's .mrkl is on the cleanup chain
// from the moment it opens, so every way a plan can end — success, a load
// that fails half-way, a retried load, a degraded stage 2 — closes every
// file it opened.
func TestMembersCloseOnEveryExit(t *testing.T) {
	env, base := leakEnv(t)
	metaB := MetadataName(env.nameB)
	blip := faults.New(1, faults.Rule{Kind: faults.TransientRead, Name: metaB})
	rows := []struct {
		name string
		opts func() Options
		hook pfs.FaultHook
		// want checks how the comparison ended.
		want func(t *testing.T, res *Result, err error)
	}{
		{name: "success", want: func(t *testing.T, res *Result, err error) {
			if err != nil || res.DiffCount == 0 {
				t.Fatalf("err = %v, result %+v", err, res)
			}
		}},
		{name: "error mid-load", // member A's file is open when member B's read fails
			hook: faults.New(1, faults.Rule{Kind: faults.PermanentRead, Name: metaB, Count: -1}),
			want: func(t *testing.T, _ *Result, err error) {
				if err == nil {
					t.Fatal("a metadata file that cannot be read compared clean")
				}
			}},
		{name: "retried step", // load runs twice: A opens twice, B once
			hook: blip,
			want: func(t *testing.T, res *Result, err error) {
				if err != nil || res.DiffCount == 0 || blip.Stats().ReadErrs != 1 {
					t.Fatalf("err = %v after %d injected faults, want one transient fault retried away", err, blip.Stats().ReadErrs)
				}
			}},
		{name: "degraded, dead source",
			opts: func() Options {
				o := base
				o.Degrade, o.Backend = true, nameFailBackend{inner: aio.Mmap{}, match: "runB", err: errStorage}
				return o
			},
			want: func(t *testing.T, res *Result, err error) {
				if err != nil || !res.Degraded || res.UnverifiedChunks == 0 {
					t.Fatalf("err = %v, want a degraded result", err)
				}
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opts := base
			if row.opts != nil {
				opts = row.opts()
			}
			env.store.EvictAll()
			if row.hook != nil {
				env.store.SetFaultHook(row.hook)
				defer env.store.SetFaultHook(nil)
			}
			res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
			row.want(t, res, err)
			if n := env.store.OpenHandles(); n != 0 {
				t.Fatalf("%d reader handles leaked", n)
			}
		})
	}
}

// TestStage2FailureClosesReaders injects a read fault into the streaming
// phase and asserts the engine's cleanup chain closed every checkpoint
// reader: no handle survives the early-return error path.
func TestStage2FailureClosesReaders(t *testing.T) {
	env, opts := leakEnv(t)

	// Measure a clean run's read-op count, then arm the fault on its last
	// read — deep inside stage 2.
	startOps, _ := env.store.ReadStats()
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts); err != nil {
		t.Fatal(err)
	}
	endOps, _ := env.store.ReadStats()
	total := endOps - startOps
	if total < 3 {
		t.Fatalf("unexpectedly few read ops: %d", total)
	}

	injected := errors.New("injected stage-2 read failure")
	env.store.EvictAll()
	faults.FailReads(env.store, int(total)-1, injected)
	_, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if n := env.store.OpenHandles(); n != 0 {
		t.Fatalf("%d reader handles leaked after stage-2 failure", n)
	}
}

// TestDirectFailureClosesReaders exercises the same invariant on the
// direct sweep, whose plan has no metadata phase.
func TestDirectFailureClosesReaders(t *testing.T) {
	env, opts := leakEnv(t)
	injected := errors.New("injected direct read failure")
	faults.FailReads(env.store, 2, injected)
	if _, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts); !errors.Is(err, injected) {
		t.Fatalf("err = %v, want injected fault", err)
	}
	if n := env.store.OpenHandles(); n != 0 {
		t.Fatalf("%d reader handles leaked after direct failure", n)
	}
}

// TestCancelMidComparisonNoLeaks cancels a comparison partway through its
// step sequence and asserts ctx.Err() propagation plus zero leaked
// handles and goroutines.
func TestCancelMidComparisonNoLeaks(t *testing.T) {
	env, opts := leakEnv(t)
	calls := errCallsOf(t, func(ctx context.Context) error {
		env.store.EvictAll()
		_, err := CompareMerkle(ctx, env.store, env.nameA, env.nameB, opts)
		return err
	})
	base := runtime.NumGoroutine()
	// Cancel at every prefix depth: step boundaries, metadata loads, and
	// per-slice pipeline checks all fold into the same Err sequence.
	for _, budget := range []int64{0, 1, 2, calls / 2, calls - 1} {
		env.store.EvictAll()
		cc := &countingCtx{Context: context.Background(), budget: budget}
		res, err := CompareMerkle(cc, env.store, env.nameA, env.nameB, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
		}
		if res != nil {
			t.Fatalf("budget %d: non-nil result on cancellation", budget)
		}
		if n := env.store.OpenHandles(); n != 0 {
			t.Fatalf("budget %d: %d reader handles leaked", budget, n)
		}
	}
	waitGoroutines(t, base)
}

// TestGroupCancelNoLeaks cancels GroupCompare at several depths; the
// shared-read plan must close every member's reader on each path.
func TestGroupCancelNoLeaks(t *testing.T) {
	env, opts := leakEnv(t)
	calls := errCallsOf(t, func(ctx context.Context) error {
		env.store.EvictAll()
		_, err := GroupCompare(ctx, env.store, env.nameA, []string{env.nameB}, TopologyStar, opts)
		return err
	})
	base := runtime.NumGoroutine()
	for _, budget := range []int64{0, 1, calls / 2, calls - 1} {
		env.store.EvictAll()
		cc := &countingCtx{Context: context.Background(), budget: budget}
		rep, err := GroupCompare(cc, env.store, env.nameA, []string{env.nameB}, TopologyStar, opts)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("budget %d: err = %v, want context.Canceled", budget, err)
		}
		if rep != nil {
			t.Fatalf("budget %d: non-nil report on cancellation", budget)
		}
		if n := env.store.OpenHandles(); n != 0 {
			t.Fatalf("budget %d: %d reader handles leaked", budget, n)
		}
	}
	waitGoroutines(t, base)
}

// cancelOnReread is a store fault hook that, once armed, counts every read
// the store sees and cancels the comparison at the first one.
type cancelOnReread struct {
	faults.Nop
	armed  atomic.Bool
	reads  atomic.Int32
	cancel context.CancelFunc
}

func (h *cancelOnReread) BeforeRead(string, int64, int) error {
	if h.armed.Load() && h.reads.Add(1) == 1 {
		h.cancel()
	}
	return nil
}

// armingBackend corrupts every batch it prices (flipBackend, so the
// integrity rung must re-read), puts the cancelling hook back on the store
// after each, and arms it once both members' batches of the one window are
// priced: every read the store sees from then on is an integrity re-read.
type armingBackend struct {
	flipBackend
	hook    *cancelOnReread
	batches *atomic.Int32
}

func (b armingBackend) Price(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	cost, io, err := b.flipBackend.Price(ctx, f, reqs)
	f.Store().SetFaultHook(b.hook)
	if b.batches.Add(1) == 2 {
		b.hook.armed.Store(true)
	}
	return cost, io, err
}

// TestCancelDuringIntegrityRereadStopsReads: a comparison canceled while
// the integrity rung is re-reading issues no further PFS reads — the
// re-read observes the context — and leaks nothing.
func TestCancelDuringIntegrityRereadStopsReads(t *testing.T) {
	env, opts := leakEnv(t)
	opts.Degrade = true
	opts.Exec = device.Serial{}
	for _, group := range []bool{false, true} {
		ctx, cancel := context.WithCancel(context.Background())
		hook := &cancelOnReread{cancel: cancel}
		opts.Backend = armingBackend{flipBackend: flipBackend{inner: aio.Mmap{}, chunk: opts.ChunkSize}, hook: hook, batches: new(atomic.Int32)}
		env.store.EvictAll()
		env.store.SetFaultHook(hook)
		var err error
		if group {
			_, err = GroupCompare(ctx, env.store, env.nameA, []string{env.nameB}, TopologyStar, opts)
		} else {
			_, err = CompareMerkle(ctx, env.store, env.nameA, env.nameB, opts)
		}
		env.store.SetFaultHook(nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("group=%v: err = %v, want context.Canceled", group, err)
		}
		// The re-read that pulled the trigger was already past its
		// cancellation point; every later one must stop there.
		if n := hook.reads.Load(); n != 1 {
			t.Errorf("group=%v: %d integrity re-reads reached the store after cancellation, want the 1 in flight", group, n)
		}
		if n := env.store.OpenHandles(); n != 0 {
			t.Fatalf("group=%v: %d reader handles leaked", group, n)
		}
	}
}

// TestGroupStage2RecyclesWindowBuffers: a group whose per-member candidate
// union is three windows still streams — stage 2 holds windows, not
// unions, lands their bytes as views and recycles their request batches —
// so two warm group comparisons allocate their answers and their plans
// within two comparisons' dettest.AllocBudget, never a window's bytes, let
// alone the union's.
func TestGroupStage2RecyclesWindowBuffers(t *testing.T) {
	if testing.Short() {
		t.Skip("writes two 24 MiB checkpoints")
	}
	opts := baseOpts(1e-7, 64<<10)
	pert := synth.DefaultPerturb(11)
	pert.MagLo, pert.MagHi, pert.UntouchedFrac = 1e-3, 1e-2, 0
	env := newEnv(t, 2<<20, opts, pert)
	opts.Backend = aio.NewUring(256)
	window := uint64(opts.withDefaults().SliceBytes)
	run := func() (answer uint64) {
		t.Helper()
		rep, err := GroupCompare(context.Background(), env.store, env.nameA, []string{env.nameB}, TopologyStar, opts)
		if err != nil {
			t.Fatal(err)
		}
		res := rep.Pairs[0].Result
		if union := uint64(res.CandidateChunks) * uint64(opts.ChunkSize); union <= 2*window {
			t.Fatalf("member union is %d bytes, want more than two windows (%d)", union, 2*window)
		}
		return indexBytes(res)
	}
	run() // warm the page cache and the free lists
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	answer := run() + run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("two warm group comparisons allocated %d bytes for an answer of %d", got, answer)
	if budget := uint64(2 * dettest.AllocBudget); got > answer+budget {
		t.Errorf("two warm group comparisons allocated %d bytes for an answer of %d, want at most %d besides: a window is %d",
			got, answer, budget, window)
	}
}
