package aio_test

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/shard"
)

// This file is the use-after-close proof for the bytes a comparison lands
// as views of its files. A member's metadata and a differential member's
// manifest land as views (pfs.File.Land) of files the comparison closes
// before it returns; what it returns must hold copies. After every door
// returns, each manifest and metadata file is overwritten in place with
// 0xDB — the same inode at the same size, so a mapping that still shows it
// shows the poison — while the result is checked, then restored: anything
// that still reads a view — a field name aliasing a manifest, a Result
// aliasing a tree — reads 0xDB and disagrees with the element-wise oracle.
//
// Seeded mutant, run by hand: in cas's manifest decode, read a field's
// name as unsafe.String over the manifest bytes instead of copying it with
// string(...), so the names of every differential member alias the view
// LoadManifest closes. Without the poison nothing notices (the file is not
// rewritten before the names are read; go test ./internal/cas
// ./internal/compare ./internal/shard stay green); with it 70 of the 75
// rows of TestParityUnderPoison fail at their first differential door —
// the member's field is named "\xdb", not what its metadata says — and
// the five of sequence-clean, which report no field, pass.

// poisonEnv is the three runs of one shape behind every stage-2 door: as
// containers with metadata, and differentially captured into a CAS.
type poisonEnv struct {
	shape  dettest.Shape
	fields []ckpt.FieldSpec
	data   [][][]byte
	ring   *aio.Uring
	opts   compare.Options

	store  *pfs.Store
	names  []string
	dstore *pfs.Store
	cs     *cas.Store
	dnames []string
	// saved is each manifest and metadata file, by path, as captured.
	saved map[string][]byte
}

func newPoisonEnv(t *testing.T, sh dettest.Shape, ring *aio.Uring) *poisonEnv {
	t.Helper()
	ctx := context.Background()
	newStore := func() *pfs.Store {
		store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	e := &poisonEnv{shape: sh, ring: ring, store: newStore(), dstore: newStore(), opts: compare.Options{
		Epsilon: sh.Epsilon(), ChunkSize: sh.Chunk, SliceBytes: sh.SliceBytes, Fields: sh.Fields, Degrade: sh.Degrade,
		StartLevel: 1, Backend: ring,
	}}
	e.fields, e.data = dettest.Runs(sh)
	var err error
	if e.cs, _, err = cas.Open(ctx, e.dstore); err != nil {
		t.Fatal(err)
	}
	for ri, runID := range []string{"runA", "runB", "runC"} {
		meta := ckpt.Meta{RunID: runID, Iteration: 10, Rank: 0, Fields: e.fields}
		name := ckpt.Name(runID, 10, 0)
		if _, err := ckpt.WriteCheckpoint(e.store, meta, e.data[ri]); err != nil {
			t.Fatal(err)
		}
		m, _, err := compare.Build(e.fields, e.data[ri], e.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compare.SaveMetadata(e.store, name, m); err != nil {
			t.Fatal(err)
		}
		capt, err := compare.NewDiffCapturer(e.dstore, e.cs, e.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := capt.Capture(ctx, meta, e.data[ri]); err != nil {
			t.Fatal(err)
		}
		e.names, e.dnames = append(e.names, name), append(e.dnames, name)
	}
	e.saved = make(map[string][]byte)
	for i := range e.names {
		for _, path := range []string{
			filepath.Join(e.store.Root(), filepath.FromSlash(compare.MetadataName(e.names[i]))),
			filepath.Join(e.dstore.Root(), filepath.FromSlash(cas.ManifestName(e.dnames[i]))),
		} {
			if e.saved[path], err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// poisoned runs check with every manifest and metadata file overwritten
// in place by 0xDB, and restores them after.
func (e *poisonEnv) poisoned(t *testing.T, check func()) {
	t.Helper()
	for path, b := range e.saved {
		overwrite(t, path, bytes.Repeat([]byte{0xDB}, len(b)))
	}
	defer func() {
		for path, b := range e.saved {
			overwrite(t, path, b)
		}
	}()
	check()
}

// overwrite writes b over the start of the file at path, in place: the
// file keeps its inode and, for b as long as the file, its size.
func overwrite(t *testing.T, path string, b []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt(b, 0)
	if err = cmp.Or(err, f.Close()); err != nil {
		t.Fatal(err)
	}
}

// checkResult holds one pair result against the oracle.
func (e *poisonEnv) checkResult(t *testing.T, label string, r *compare.Result, a, b int) {
	t.Helper()
	if r.Degraded || r.UnverifiedChunks != 0 {
		t.Errorf("%s: degraded (%d unverified) with no fault injected", label, r.UnverifiedChunks)
	}
	got := make(map[string][]int64)
	for _, d := range r.Diffs {
		got[d.Field] = d.Indices
	}
	if want := dettest.Want(e.shape, e.fields, e.data, a, b); !reflect.DeepEqual(got, want) {
		t.Errorf("%s: diffs differ from the element-wise oracle (%d fields reported, %d expected)", label, len(got), len(want))
	}
}

// doors drives every stage-2 entry point once on exec, each from a cold
// page cache, checking each under poison as it returns.
func (e *poisonEnv) doors(t *testing.T, exec device.Executor) {
	t.Helper()
	ctx := context.Background()
	opts := e.opts
	opts.Exec = exec
	pair := func(label string, a, b int, run func() (*compare.Result, error)) {
		t.Helper()
		e.store.EvictAll()
		e.dstore.EvictAll()
		r, err := run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		e.poisoned(t, func() { e.checkResult(t, label, r, a, b) })
	}
	group := func(label string, run func() (*compare.GroupReport, error)) {
		t.Helper()
		e.store.EvictAll()
		e.dstore.EvictAll()
		rep, err := run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		e.poisoned(t, func() {
			for _, p := range rep.Pairs {
				e.checkResult(t, fmt.Sprintf("%s %d-%d", label, p.A, p.B), p.Result, p.A, p.B)
			}
		})
	}
	pair("merkle", 0, 1, func() (*compare.Result, error) {
		return compare.CompareMerkle(ctx, e.store, e.names[0], e.names[1], opts)
	})
	sweep := opts
	sweep.Degrade = false // the direct sweep has no integrity rung
	pair("direct", 0, 1, func() (*compare.Result, error) {
		return compare.CompareDirect(ctx, e.store, e.names[0], e.names[1], sweep)
	})
	dopts := opts
	dopts.Memo = compare.NewCASMemo(e.shape.Epsilon())
	for _, label := range []string{"cas-diff cold", "cas-diff warm"} {
		pair(label, 0, 1, func() (*compare.Result, error) {
			return compare.CompareDiff(ctx, e.dstore, e.cs, e.dnames[0], e.dnames[1], dopts)
		})
	}
	cfg := shard.Config{Workers: 4, Stealing: true, SubtreeChunks: 4}
	pair("shard pair", 0, 1, func() (*compare.Result, error) {
		r, _, err := shard.Compare(ctx, e.store, e.names[0], e.names[1], cfg, opts)
		return r, err
	})
	for _, topology := range []compare.Topology{compare.TopologyStar, compare.TopologyAllPairs} {
		group(fmt.Sprintf("group %s", topology), func() (*compare.GroupReport, error) {
			return compare.GroupCompare(ctx, e.store, e.names[0], e.names[1:], topology, opts)
		})
		group(fmt.Sprintf("cas group %s", topology), func() (*compare.GroupReport, error) {
			return compare.GroupCompareDiff(ctx, e.dstore, e.cs, e.dnames[0], e.dnames[1:], topology, opts)
		})
	}
	group("shard group", func() (*compare.GroupReport, error) {
		rep, _, err := shard.GroupCompare(ctx, e.store, e.names[0], e.names[1:], compare.TopologyStar, cfg, opts)
		return rep, err
	})
}

// TestParityUnderPoison runs the stage-2 parity table — every dettest
// shape and the stale-scratch sequence, on every executor, through pair,
// Direct, group star/all-pairs, CAS pair/group and shard pair/group — with
// every manifest and metadata file poisoned while each result is checked.
func TestParityUnderPoison(t *testing.T) {
	ring := aio.NewUring(256)
	for _, sh := range slices.Concat(dettest.Shapes(), dettest.CopyShapes(), dettest.Sequence()) {
		e := newPoisonEnv(t, sh, ring)
		for _, ex := range dettest.Execs() {
			t.Run(sh.Name+"/"+ex.Name, func(t *testing.T) {
				exec, release := ex.Make()
				defer release()
				e.doors(t, exec)
			})
		}
	}
}

// TestResultsOutliveRecycledBuffers: a Result is the caller's to keep. Held
// across three later comparisons on the same plane — each of which takes
// over every request batch and kernel scratch store the first one used —
// its diffs still equal the oracle's under poison, and its roots and
// counts those of a fresh comparison and of metadata loaded to be kept.
func TestResultsOutliveRecycledBuffers(t *testing.T) {
	ring := aio.NewUring(256)
	var sh dettest.Shape
	for _, s := range dettest.Shapes() {
		if s.Name == "many-slices" {
			sh = s
		}
	}
	e := newPoisonEnv(t, sh, ring)
	ctx := context.Background()
	merkle := func(a, b int) *compare.Result {
		t.Helper()
		e.store.EvictAll()
		r, err := compare.CompareMerkle(ctx, e.store, e.names[a], e.names[b], e.opts)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	held := merkle(0, 1)
	merkle(0, 2)
	if _, err := compare.GroupCompare(ctx, e.store, e.names[0], e.names[1:], compare.TopologyAllPairs, e.opts); err != nil {
		t.Fatal(err)
	}
	if _, err := compare.CompareDirect(ctx, e.store, e.names[1], e.names[2], e.opts); err != nil {
		t.Fatal(err)
	}
	e.poisoned(t, func() { e.checkResult(t, "held result", held, 0, 1) })
	fresh := merkle(0, 1)
	type counts struct {
		total, candidate, changed int
		elements, diffs, metadata int64
	}
	of := func(r *compare.Result) counts {
		return counts{r.TotalChunks, r.CandidateChunks, r.ChangedChunks, r.TotalElements, r.DiffCount, r.MetadataBytes}
	}
	if of(held) != of(fresh) {
		t.Errorf("held counts %+v, a fresh comparison's %+v", of(held), of(fresh))
	}
	for side, name := range e.names[:2] {
		m, _, _, err := compare.LoadMetadata(ctx, e.store, name)
		if err != nil {
			t.Fatal(err)
		}
		if got := [2][16]byte{held.RootA, held.RootB}[side]; got != m.CombinedRoot() {
			t.Errorf("held root of %s is %x, its metadata's %x", name, got, m.CombinedRoot())
		}
	}
}
