package compare

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/aio"
	"repro/internal/dettest"
	"repro/internal/device"
)

// allocShapes are the two regimes of the pin: sparse at 4 KiB chunks, where
// the metadata (98 KB a member) dwarfs the answer, and dense at 64 KiB,
// where the answer (every chunk divergent) dwarfs the metadata.
var allocShapes = map[string]dettest.Shape{
	"sparse-4KiB": {Name: "alloc-sparse", Elems: 1 << 20, Chunk: 4 << 10, Quiet: true, Stride: 50_021},
	"dense-64KiB": {Name: "alloc-dense", Elems: 512 << 10, Chunk: 64 << 10, Stride: 61},
}

// indexBytes is the size of the answer: every pair's divergent indices.
func indexBytes(results ...*Result) uint64 {
	var n uint64
	for _, r := range results {
		n += 8 * uint64(r.DiffCount)
	}
	return n
}

// TestWarmComparisonAllocatesItsAnswer carries TestSteadyStateComparisonAllocs
// (internal/stream) up through the planners: on a warm plane a comparison
// allocates the index lists it returns, once and at their exact size, plus
// a fixed budget — whichever door it came in by. The metadata bytes and the
// window buffers come out of the arena (no miss over the warm runs, nothing
// outstanding after any), the kernel scratch out of its free list.
// dettest.PinWarmAllocs is the measurement; internal/shard has its row.
func TestWarmComparisonAllocatesItsAnswer(t *testing.T) {
	if testing.Short() {
		t.Skip("writes six 6–12 MiB checkpoints")
	}
	ctx := context.Background()
	pool := device.NewPool(2)
	defer pool.Close()
	ring := aio.NewUring(256)
	envs := make(map[string]*detEnv)
	for name, sh := range allocShapes {
		envs[name] = newDetEnv(t, sh)
	}
	pairs := func(rep *GroupReport, err error) ([]*Result, error) {
		if err != nil {
			return nil, err
		}
		var rs []*Result
		for _, p := range rep.Pairs {
			rs = append(rs, p.Result)
		}
		return rs, nil
	}
	one := func(r *Result, err error) ([]*Result, error) { return []*Result{r}, err }
	rows := []struct {
		name, shape string
		run         func(e *detEnv, opts Options) ([]*Result, error)
	}{
		{"CompareMerkle", "sparse-4KiB", func(e *detEnv, opts Options) ([]*Result, error) {
			return one(CompareMerkle(ctx, e.store, e.names[0], e.names[1], opts))
		}},
		{"CompareMerkle", "dense-64KiB", func(e *detEnv, opts Options) ([]*Result, error) {
			return one(CompareMerkle(ctx, e.store, e.names[0], e.names[1], opts))
		}},
		{"GroupCompare star", "sparse-4KiB", func(e *detEnv, opts Options) ([]*Result, error) {
			return pairs(GroupCompare(ctx, e.store, e.names[0], e.names[1:], TopologyStar, opts))
		}},
		{"CompareDiff", "dense-64KiB", func(e *detEnv, opts Options) ([]*Result, error) {
			return one(CompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1], opts))
		}},
		{"CompareDirect", "dense-64KiB", func(e *detEnv, opts Options) ([]*Result, error) {
			return one(CompareDirect(ctx, e.store, e.names[0], e.names[1], opts))
		}},
	}
	for _, row := range rows {
		t.Run(row.name+"/"+row.shape, func(t *testing.T) {
			e := envs[row.shape]
			opts := e.opts
			opts.Exec, opts.Backend = pool, aio.NewCoalescing(ring, 0)
			dettest.PinWarmAllocs(t, ring.Arena(), func() uint64 {
				results, err := row.run(e, opts)
				if err != nil {
					t.Fatal(err)
				}
				return indexBytes(results...)
			})
		})
	}
}

// TestKernelScratchFreeListIsBounded: the free list takes back at most
// kernelFreeStores stores and none over kernelStoreMax bytes, and a store
// comes back out with nothing of the batch before — no verdict in a slot,
// no index, no re-read cost.
func TestKernelScratchFreeListIsBounded(t *testing.T) {
	drain := func() (stores []*verdicts) {
		kernelFree.Lock()
		defer kernelFree.Unlock()
		stores, kernelFree.stores = kernelFree.stores, nil
		return stores
	}
	kept := drain()
	defer func() {
		drain()
		kernelFree.stores = kept
	}()

	if got := reflect.TypeOf(verdictSlot{}).Size(); got != verdictSlotBytes {
		t.Errorf("a verdictSlot is %d bytes, the bound counts %d", got, verdictSlotBytes)
	}
	big := getVerdicts(4, 2)
	big.ranges[0].idx = make([]int64, 0, kernelStoreMax/8+1)
	putVerdicts(big)
	if n := len(kernelFree.stores); n != 0 {
		t.Fatalf("a store over %d bytes was kept", kernelStoreMax)
	}

	var out []*verdicts
	for i := 0; i < kernelFreeStores+3; i++ {
		out = append(out, getVerdicts(8, 2))
	}
	for _, v := range out {
		v.slots[7] = verdictSlot{verdict: chunkChanged, lo: 0, hi: 3}
		v.ranges[1].idx = append(v.ranges[1].idx, 1, 2, 3)
		v.ranges[1].rereadCost.Ops = 5
		putVerdicts(v)
	}
	if n := len(kernelFree.stores); n != kernelFreeStores {
		t.Fatalf("free list holds %d stores, bound %d", n, kernelFreeStores)
	}
	v := getVerdicts(8, 2)
	if v.slots[7] != (verdictSlot{}) || len(v.ranges[1].idx) != 0 || v.ranges[1].rereadCost.Ops != 0 {
		t.Errorf("a recycled store kept slot %+v, %d indices, %d re-read ops", v.slots[7], len(v.ranges[1].idx), v.ranges[1].rereadCost.Ops)
	}
	if cap(v.ranges[1].idx) < 3 {
		t.Error("a recycled store lost its index scratch")
	}
}
