package aio_test

import (
	"context"
	"fmt"
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

// This file is the use-after-return proof for everything a comparison
// checks out of the arena. A member set decodes its members' Merkle trees
// in place over arena buffer sets, and a differential one reads its
// manifests through one; with aio.PoisonOnPut every set is overwritten the
// moment it goes back, so anything that still reads a returned buffer — a
// tree used after its plan, a Result aliasing scratch — reads 0xDB and
// disagrees with the element-wise oracle.
//
// Seeded mutant, run by hand (CHANGES.md, PR 21): in compare.MemberSet.load
// replace `x.Defer(func() { arena.Put(set) })` with `defer arena.Put(set)`,
// so the sets go back when the load step returns, before tree-diff runs.
// Without the poison only the Degrade rows of the existing tables notice
// (nothing reuses the sets before stage 2, which reads tree geometry, not
// nodes — except the integrity rung's leaf digests); with it every row of
// TestParityUnderPoison that has a diff to find fails, 55 of 60 — both
// members' trees are the same 0xDB bytes, stage 1 prunes everything, and no
// door reports a single oracle diff.

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
		StartLevel: 1, Backend: aio.NewCoalescing(ring, 0),
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
	return e
}

// checkResult holds one pair result against the oracle and the arena
// against its books: every set the door checked out is back.
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
	if st := e.ring.Arena().Stats(); st.Outstanding != 0 {
		t.Errorf("%s: %d arena sets still checked out", label, st.Outstanding)
	}
}

// doors drives every stage-2 entry point once on exec, each from a cold
// page cache, checking each as it returns.
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
		e.checkResult(t, label, r, a, b)
	}
	group := func(label string, run func() (*compare.GroupReport, error)) {
		t.Helper()
		e.store.EvictAll()
		e.dstore.EvictAll()
		rep, err := run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for _, p := range rep.Pairs {
			e.checkResult(t, fmt.Sprintf("%s %d-%d", label, p.A, p.B), p.Result, p.A, p.B)
		}
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
// every returned buffer set overwritten.
func TestParityUnderPoison(t *testing.T) {
	aio.PoisonOnPut(true)
	defer aio.PoisonOnPut(false)
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
// over, and under poison first overwrites, every buffer the first one used
// — its diffs still equal the oracle's and its roots and counts those of a
// fresh comparison and of metadata loaded to be kept.
func TestResultsOutliveRecycledBuffers(t *testing.T) {
	aio.PoisonOnPut(true)
	defer aio.PoisonOnPut(false)
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
	e.checkResult(t, "held result", held, 0, 1)
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
