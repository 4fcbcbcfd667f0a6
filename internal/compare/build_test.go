package compare

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/faults"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// buildCase is one row of the leaf-loop table: a checkpoint and the chunk
// size its metadata is built at.
type buildCase struct {
	name   string
	chunk  int
	fields []ckpt.FieldSpec
	data   [][]byte
}

// f64Field widens a synthetic float32 field to float64 elements.
func f64Field(n int, seed int64) []byte {
	src := synth.FieldF32(n, seed)
	out := make([]byte, 0, 8*n)
	for i := 0; i < n; i++ {
		v := float64(math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))) * 1.0000001
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

// buildCases returns the table: the stage-2 parity shapes' baselines, then
// the shapes that put a block boundary, a chunk boundary or a dtype
// boundary somewhere the loop has to get right.
func buildCases() []buildCase {
	var cases []buildCase
	for _, sh := range dettest.Shapes() {
		fields, data := dettest.Runs(sh)
		cases = append(cases, buildCase{name: sh.Name, chunk: sh.Chunk, fields: fields, data: data[0]})
	}
	add := func(name string, chunk int, fields ...ckpt.FieldSpec) {
		c := buildCase{name: name, chunk: chunk, fields: fields}
		for i, f := range fields {
			if f.DType == errbound.Float64 {
				c.data = append(c.data, f64Field(int(f.Count), int64(i)))
			} else {
				c.data = append(c.data, synth.FieldF32(int(f.Count), int64(i)))
			}
		}
		cases = append(cases, c)
	}
	f32 := func(name string, elems int64) ckpt.FieldSpec {
		return ckpt.FieldSpec{Name: name, DType: errbound.Float32, Count: elems}
	}
	f64 := func(name string, elems int64) ckpt.FieldSpec {
		return ckpt.FieldSpec{Name: name, DType: errbound.Float64, Count: elems}
	}
	// 1.2 MB fields: the second read block is short and ends in a short chunk.
	add("ragged-across-blocks", 4<<10, f32("a", 300_001), f32("b", 300_001))
	// A chunk is two read blocks; the last chunk of "a" is a ragged 1.2 MiB.
	add("chunk-over-1MiB", 2<<20, f32("a", 1_350_000), f32("b", 512<<10))
	// 48 KiB chunks: 21 to a read block, which then is not the 1 MiB grid.
	add("chunk-not-dividing-1MiB", 48<<10, f32("a", 700_000), f32("b", 12_288))
	add("single-chunk-fields", 64<<10, f32("a", 1000), f32("b", 16_384), f32("c", 1))
	// Smaller than a read block, larger than a memory block.
	add("field-under-one-block", 4<<10, f32("a", 25_000), f32("b", 4))
	add("mixed-dtypes", 8<<10, f32("a", 70_001), f64("b", 150_003), f32("c", 300), f64("d", 1))
	return cases
}

// written writes the case to a fresh store and returns it with the
// checkpoint's name.
func (c buildCase) written(t testing.TB) (*pfs.Store, string) {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	meta := ckpt.Meta{RunID: "build", Iteration: 3, Fields: c.fields}
	if _, err := ckpt.WriteCheckpoint(store, meta, c.data); err != nil {
		t.Fatal(err)
	}
	return store, ckpt.Name(meta.RunID, meta.Iteration, meta.Rank)
}

// readBack opens the checkpoint and builds its metadata from the reader.
func readBack(ctx context.Context, t testing.TB, store *pfs.Store, name string, opts Options) (*Metadata, BuildStats, pfs.Cost, error) {
	t.Helper()
	r, _, err := ckpt.OpenReader(store, name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	return BuildFromReader(ctx, r, opts)
}

func sameMetadata(t *testing.T, got, want *Metadata) {
	t.Helper()
	if got.CombinedRoot() != want.CombinedRoot() || len(got.Fields) != len(want.Fields) {
		t.Fatalf("combined root %v over %d fields, want %v over %d", got.CombinedRoot(), len(got.Fields), want.CombinedRoot(), len(want.Fields))
	}
	for fi, f := range want.Fields {
		g := got.Fields[fi]
		if g.Name != f.Name || g.DType != f.DType || g.Tree.NumChunks() != f.Tree.NumChunks() || g.Tree.Root() != f.Tree.Root() {
			t.Fatalf("field %d: %q %v %d chunks root %v, want %q %v %d chunks root %v", fi,
				g.Name, g.DType, g.Tree.NumChunks(), g.Tree.Root(), f.Name, f.DType, f.Tree.NumChunks(), f.Tree.Root())
		}
		for i := 0; i < f.Tree.NumChunks(); i++ {
			if g.Tree.Leaf(i) != f.Tree.Leaf(i) {
				t.Fatalf("field %q leaf %d: %v, want %v", f.Name, i, g.Tree.Leaf(i), f.Tree.Leaf(i))
			}
		}
	}
}

// TestBuildSourcesAgree is the parity table of the one leaf loop: on every
// shape and executor, the read-back build of a written checkpoint equals the
// in-memory build in every leaf, root and virtual column, both equal a
// leaf-by-leaf oracle that calls the hasher directly, and what a differential
// capture saves — manifest digests and metadata — equals it too: cold, and
// again after one warm step against a from-scratch build of the evolved data.
func TestBuildSourcesAgree(t *testing.T) {
	for _, c := range buildCases() {
		store, name := c.written(t)
		// evolve perturbs 4-byte words: on a float64 field that is a change
		// to the value through its high word, which is all a step has to be.
		next := evolve(c.data, 7)
		var oracle, oracleNext *Metadata
		for _, ex := range dettest.Execs() {
			t.Run(c.name+"/"+ex.Name, func(t *testing.T) {
				exec, release := ex.Make()
				defer release()
				opts := Options{Epsilon: dettest.Eps, ChunkSize: c.chunk, Exec: exec, Backend: aio.NewUring(0)}
				mem, memStats, err := Build(c.fields, c.data, opts)
				if err != nil {
					t.Fatal(err)
				}
				if oracle == nil {
					for fi, f := range c.fields {
						h, err := errbound.NewHasher(f.DType, dettest.Eps)
						if err != nil {
							t.Fatal(err)
						}
						for i := 0; i < mem.Fields[fi].Tree.NumChunks(); i++ {
							lo := i * c.chunk
							want, err := h.HashChunk(c.data[fi][lo:min(lo+c.chunk, len(c.data[fi]))])
							if err != nil {
								t.Fatal(err)
							}
							if got := mem.Fields[fi].Tree.Leaf(i); got != want {
								t.Fatalf("field %q leaf %d: %v, want %v", f.Name, i, got, want)
							}
						}
					}
					oracle = mem
				}
				sameMetadata(t, mem, oracle)
				rd, rdStats, cost, err := readBack(context.Background(), t, store, name, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameMetadata(t, rd, oracle)
				memStats.Wall, rdStats.Wall = 0, 0
				if memStats != rdStats || memStats.Bytes != (ckpt.Meta{Fields: c.fields}).TotalBytes() {
					t.Errorf("build stats: memory %+v, reader %+v", memStats, rdStats)
				}
				if cost.TotalBytes() != memStats.Bytes {
					t.Errorf("read-back moved %d bytes for a %d-byte checkpoint", cost.TotalBytes(), memStats.Bytes)
				}
				if oracleNext == nil {
					if oracleNext, _, err = Build(c.fields, next, opts); err != nil {
						t.Fatal(err)
					}
				}
				dstore, _, capt := diffFixture(t, opts)
				meta := ckpt.Meta{RunID: "build", Iteration: 3, Fields: c.fields}
				rep, err := capt.Capture(context.Background(), meta, c.data)
				if err != nil || !rep.Cold {
					t.Fatalf("cold capture: error %v, report %+v", err, rep)
				}
				savedCaptureAgrees(t, dstore, meta, oracle)
				meta.Iteration++
				rep, err = capt.Capture(context.Background(), meta, next)
				if err != nil || rep.Cold || rep.UpdatedLeaves != changedLeaves(oracle, oracleNext) {
					t.Fatalf("warm capture: error %v, report %+v, want %d leaves updated", err, rep, changedLeaves(oracle, oracleNext))
				}
				savedCaptureAgrees(t, dstore, meta, oracleNext)
			})
		}
	}
}

// readSet is what a read-back build costs the store.
type readSet struct {
	warm, cold pfs.Cost // just written (all resident), and after eviction
	ops, bytes int64    // Store.ReadStats delta of the cold open and build
	pages      int      // ResidentPages after the cold build
}

// parentReadSets are the read sets of the power-of-two-chunk rows at the
// parent commit (1ae74df), where BuildFromReader was ckpt.ReadField per
// field followed by Build — recorded by running measureReadSet there (the
// ulp-jitter row, a shape added later, at 41084e4 the same way, and the
// field-of-one-chunk and leaves-beside-start-level rows at a58ba29). The
// one loop must issue the same reads: only the goroutine that issues them
// changed. (The op and byte counts include the header read of OpenReader.)
var parentReadSets = map[string]readSet{
	"single-chunk":              {warm: pfs.Cost{CachedOps: 3, CachedBytes: 12000}, cold: pfs.Cost{Ops: 2, CachedOps: 1, Bytes: 8000, CachedBytes: 4000}, ops: 4, bytes: 16096, pages: 3},
	"ragged-final-chunk":        {warm: pfs.Cost{CachedOps: 3, CachedBytes: 120444}, cold: pfs.Cost{Ops: 3, Bytes: 117160, CachedBytes: 3284}, ops: 4, bytes: 124540, pages: 30},
	"few-pairs-per-slice":       {warm: pfs.Cost{CachedOps: 3, CachedBytes: 786432}, cold: pfs.Cost{Ops: 3, Bytes: 786432}, ops: 4, bytes: 790528, pages: 193},
	"many-slices":               {warm: pfs.Cost{CachedOps: 3, CachedBytes: 3145728}, cold: pfs.Cost{Ops: 3, Bytes: 3145728}, ops: 4, bytes: 3149824, pages: 769},
	"fields-filter":             {warm: pfs.Cost{CachedOps: 3, CachedBytes: 393216}, cold: pfs.Cost{Ops: 3, Bytes: 393216}, ops: 4, bytes: 397312, pages: 97},
	"degrade-bit-flip":          {warm: pfs.Cost{CachedOps: 3, CachedBytes: 589824}, cold: pfs.Cost{Ops: 3, Bytes: 589824}, ops: 4, bytes: 593920, pages: 145},
	"ulp-jitter":                {warm: pfs.Cost{CachedOps: 3, CachedBytes: 480036}, cold: pfs.Cost{Ops: 3, Bytes: 479232, CachedBytes: 804}, ops: 4, bytes: 484132, pages: 118},
	"field-of-one-chunk":        {warm: pfs.Cost{CachedOps: 3, CachedBytes: 48244}, cold: pfs.Cost{Ops: 3, Bytes: 44960, CachedBytes: 3284}, ops: 4, bytes: 52340, pages: 12},
	"leaves-beside-start-level": {warm: pfs.Cost{CachedOps: 3, CachedBytes: 32920}, cold: pfs.Cost{Ops: 3, Bytes: 32768, CachedBytes: 152}, ops: 4, bytes: 37016, pages: 9},
	"ragged-across-blocks":      {warm: pfs.Cost{CachedOps: 4, CachedBytes: 2400008}, cold: pfs.Cost{Ops: 4, Bytes: 2396036, CachedBytes: 3972}, ops: 5, bytes: 2404104, pages: 586},
	"chunk-over-1MiB":           {warm: pfs.Cost{CachedOps: 8, CachedBytes: 7497152}, cold: pfs.Cost{Ops: 8, Bytes: 7495680, CachedBytes: 1472}, ops: 9, bytes: 7501248, pages: 1831},
	"single-chunk-fields":       {warm: pfs.Cost{CachedOps: 3, CachedBytes: 69540}, cold: pfs.Cost{Ops: 2, CachedOps: 1, Bytes: 69536, CachedBytes: 4}, ops: 4, bytes: 73636, pages: 18},
	"field-under-one-block":     {warm: pfs.Cost{CachedOps: 2, CachedBytes: 100016}, cold: pfs.Cost{Ops: 1, CachedOps: 1, Bytes: 98304, CachedBytes: 1712}, ops: 3, bytes: 104112, pages: 25},
	"mixed-dtypes":              {warm: pfs.Cost{CachedOps: 5, CachedBytes: 1481236}, cold: pfs.Cost{Ops: 3, CachedOps: 2, Bytes: 1478552, CachedBytes: 2684}, ops: 6, bytes: 1485332, pages: 362},
}

// measureReadSet builds from the reader twice — on the store as written,
// then evicted — and reports what the store saw.
func measureReadSet(t *testing.T, c buildCase, exec device.Executor) readSet {
	t.Helper()
	store, name := c.written(t)
	opts := Options{Epsilon: dettest.Eps, ChunkSize: c.chunk, Exec: exec}
	var rs readSet
	var err error
	if _, _, rs.warm, err = readBack(context.Background(), t, store, name, opts); err != nil {
		t.Fatal(err)
	}
	store.Evict(name)
	ops0, bytes0 := store.ReadStats()
	if _, _, rs.cold, err = readBack(context.Background(), t, store, name, opts); err != nil {
		t.Fatal(err)
	}
	ops1, bytes1 := store.ReadStats()
	rs.ops, rs.bytes, rs.pages = ops1-ops0, bytes1-bytes0, store.ResidentPages(name)
	return rs
}

// TestBuildReadSetMatchesParent holds the loop's reads to the parent's. The
// set of (offset, length) reads is the same on every executor, and so is
// everything that depends only on the set: the warm cost, the op and byte
// counts, the pages left resident. The cold/cached split of the cold cost
// also depends on which of two neighbouring reads touches the page they
// share first, so it is held to the digit where the order is the parent's
// (one worker) and to its order-free parts elsewhere.
func TestBuildReadSetMatchesParent(t *testing.T) {
	for _, c := range buildCases() {
		want, ok := parentReadSets[c.name]
		if c.chunk&(c.chunk-1) != 0 {
			if ok {
				t.Errorf("%s: a recorded read set for a chunk size the 1 MiB grid does not hold for", c.name)
			}
			continue
		}
		for _, ex := range dettest.Execs() {
			t.Run(c.name+"/"+ex.Name, func(t *testing.T) {
				exec, release := ex.Make()
				defer release()
				got := measureReadSet(t, c, exec)
				want := want
				if exec.Workers() > 1 {
					got.cold, want.cold = orderFree(got.cold), orderFree(want.cold)
				}
				if got != want {
					t.Errorf("read set\n got %#v\nwant %#v", got, want)
				}
			})
		}
	}
}

// orderFree folds a cost down to what the set of reads alone decides.
func orderFree(c pfs.Cost) pfs.Cost {
	return pfs.Cost{Ops: c.Ops + c.CachedOps, Bytes: c.TotalBytes()}
}

// blockFaults fails the reads that start at chosen file offsets and adds up
// the bytes of the reads that completed.
type blockFaults struct {
	faults.Nop
	fail      map[int64]error
	completed atomic.Int64
}

func (b *blockFaults) BeforeRead(_ string, off int64, _ int) error { return b.fail[off] }
func (b *blockFaults) AfterRead(_ string, _ int64, n int) ([]pfs.Flip, pfs.Cost) {
	b.completed.Add(int64(n))
	return nil, pfs.Cost{}
}

// TestBuildReadFaultLowestBlockWins fails the reads of two blocks — (field
// 1, block 1) and (field 2, block 0) — and wants the first one's error,
// under every executor, with a cost that is exactly the reads that
// completed.
func TestBuildReadFaultLowestBlockWins(t *testing.T) {
	const elems = 700_000 // 2.8 MB: three read blocks a field
	c := buildCase{name: "faults", chunk: 4 << 10}
	for _, n := range []string{"a", "b", "c"} {
		c.fields = append(c.fields, ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: elems})
		c.data = append(c.data, synth.FieldF32(elems, int64(len(c.fields))))
	}
	store, name := c.written(t)
	r, _, err := ckpt.OpenReader(store, name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	errLow, errHigh := errors.New("fault in field b block 1"), errors.New("fault in field c block 0")
	for _, ex := range dettest.Execs() {
		t.Run(ex.Name, func(t *testing.T) {
			exec, release := ex.Make()
			defer release()
			hook := &blockFaults{fail: map[int64]error{
				r.FieldFileOffset(1) + 1<<20: errLow,
				r.FieldFileOffset(2):         errHigh,
			}}
			store.SetFaultHook(hook)
			defer store.SetFaultHook(nil)
			opts := Options{Epsilon: dettest.Eps, ChunkSize: c.chunk, Exec: exec, Backend: aio.NewUring(0)}
			m, _, cost, err := BuildFromReader(context.Background(), r, opts)
			if m != nil || !errors.Is(err, errLow) {
				t.Fatalf("metadata %v, error %v; want the lower block's fault", m, err)
			}
			// Field a and the first block of b lie below the fault: all of
			// what one worker reads, the least any number of workers does.
			const below = 4*elems + 1<<20
			if got, want := cost.TotalBytes(), hook.completed.Load(); got != want || got < below || (exec.Workers() == 1 && got != below) {
				t.Errorf("cost covers %d bytes, completed reads moved %d, the blocks below the fault hold %d", got, want, below)
			}
		})
	}
}

// cancelOnRead cancels a context when the n-th read begins.
type cancelOnRead struct {
	blockFaults
	left   atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelOnRead) BeforeRead(string, int64, int) error {
	if c.left.Add(-1) == 0 {
		c.cancel()
	}
	return nil
}

// TestBuildCancelMidway cancels while blocks are in flight: the build
// returns the context's error and no metadata, and no goroutine outlives
// the call.
func TestBuildCancelMidway(t *testing.T) {
	fields, data, opts := captureShapeData()
	store, name := buildCase{fields: fields, data: data}.written(t)
	// Canceled before it starts: nothing is read. (This also starts the
	// process-wide default ring, whose workers are not this build's.)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, cost, err := readBack(ctx, t, store, name, opts); !errors.Is(err, context.Canceled) || cost != (pfs.Cost{}) {
		t.Errorf("pre-canceled build: error %v, cost %+v", err, cost)
	}
	for _, ex := range dettest.Execs() {
		t.Run(ex.Name, func(t *testing.T) {
			exec, release := ex.Make()
			defer release()
			opts := opts
			opts.Exec, opts.Backend = exec, aio.NewUring(0)
			base := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			hook := &cancelOnRead{cancel: cancel}
			hook.left.Store(5)
			store.SetFaultHook(hook)
			defer store.SetFaultHook(nil)
			m, _, cost, err := readBack(ctx, t, store, name, opts)
			if m != nil || !errors.Is(err, context.Canceled) {
				t.Fatalf("metadata %v, error %v; want context.Canceled", m, err)
			}
			if total := (ckpt.Meta{Fields: fields}).TotalBytes(); cost.TotalBytes() >= total {
				t.Errorf("a build canceled at its fifth read still read all %d bytes", total)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestBuildFromReaderAllocation pins the memory bound: a 14 MiB read-back
// build allocates its leaves and trees, not the checkpoint (the parent
// allocated all of it, 14.9 MB): the blocks are views of the file.
func TestBuildFromReaderAllocation(t *testing.T) {
	fields, data, opts := captureShapeData()
	store, name := buildCase{fields: fields, data: data}.written(t)
	pool := device.NewPool(2)
	defer pool.Close()
	opts.Exec = pool
	opts.Backend = aio.NewUring(0)
	var ms runtime.MemStats
	var before uint64
	for i := 0; i < 2; i++ {
		runtime.ReadMemStats(&ms)
		before = ms.TotalAlloc
		if _, _, _, err := readBack(context.Background(), t, store, name, opts); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&ms)
	if got := ms.TotalAlloc - before; got > 1<<20 {
		t.Errorf("a 14 MiB build allocated %d bytes, want under 1 MiB", got)
	}
}

// TestBuildFromReaderConcurrent runs builds of one reader side by side, the
// way a served plane does, under the race detector.
func TestBuildFromReaderConcurrent(t *testing.T) {
	c := buildCases()[1]
	store, name := c.written(t)
	opts := Options{Epsilon: dettest.Eps, ChunkSize: c.chunk}
	want, _, err := Build(c.fields, c.data, opts)
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := ckpt.OpenReader(store, name)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m, _, _, err := BuildFromReader(context.Background(), r, opts)
			if err != nil {
				t.Error(err)
				return
			}
			if m.CombinedRoot() != want.CombinedRoot() {
				t.Errorf("concurrent build root %v, want %v", m.CombinedRoot(), want.CombinedRoot())
			}
		}()
	}
	wg.Wait()
}
