package compare

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/pfs"
)

// This file pins the stage-2 kernel's two contracts across every entry
// point that runs it: results do not depend on the executor (serial, or a
// pool of any size — diffs and their order, chunk counts, unverified
// counts and every virtual-time column are deep-equal), and they equal an
// independent element-wise oracle on adversarial values. The table's
// shapes, executors and oracle live in internal/dettest; its shard-pair
// and shard-group rows run them from internal/shard/parity_test.go (this
// package cannot import its own importer).

// flipBackend simulates in-flight corruption deterministically: every
// request buffer read from a file whose name contains match gets one high
// exponent bit flipped after the inner read lands. Integrity re-reads go
// straight to the file and see clean bytes.
type flipBackend struct {
	inner aio.Backend
	match string
}

func (b flipBackend) Name() string { return "flip" }

func (b flipBackend) ReadBatch(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	cost, io, err := b.inner.ReadBatch(ctx, f, reqs)
	if err == nil && strings.Contains(f.Name(), b.match) {
		for _, r := range reqs {
			r.Buf[3] ^= 0x40
		}
	}
	return cost, io, err
}

func normResult(r *Result) *Result {
	dettest.VirtualOnly(&r.Breakdown, r.Steps)
	return r
}

func normGroup(g *GroupReport) *GroupReport {
	dettest.VirtualOnly(&g.Breakdown, g.Steps)
	for i := range g.Pairs {
		normResult(g.Pairs[i].Result)
	}
	return g
}

// detOutputs is everything one executor produced for one shape.
type detOutputs struct {
	Merkle, Direct, DiffCold, DiffWarm *Result
	Star, AllPairs                     *GroupReport
}

func TestStage2DeterministicAcrossExecutors(t *testing.T) {
	for _, sh := range dettest.Shapes() {
		t.Run(sh.Name, func(t *testing.T) {
			env := newDetEnv(t, sh)
			var ref *detOutputs
			for _, ex := range dettest.Execs() {
				exec, closeExec := ex.Make()
				out := env.run(t, exec)
				closeExec()
				if ref == nil {
					ref = out
					env.checkOracle(t, out)
					env.checkPairIsGroupOfTwo(t, exec)
					continue
				}
				if !reflect.DeepEqual(ref, out) {
					t.Errorf("%s differs from serial:\n%s", ex.Name, firstDifference(ref, out))
				}
			}
		})
	}
}

// detEnv is three runs of one shape, stored twice: as checkpoint
// containers with metadata, and differentially captured into a CAS.
type detEnv struct {
	shape  dettest.Shape
	opts   Options
	store  *pfs.Store
	names  []string
	data   [][][]byte
	fields []ckpt.FieldSpec
	diff   *diffEnv
	dnames []string
}

func newDetEnv(t *testing.T, sh dettest.Shape) *detEnv {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	env := &detEnv{
		shape: sh, store: store,
		opts: Options{
			Epsilon: dettest.Eps, ChunkSize: sh.Chunk, SliceBytes: sh.SliceBytes,
			// The default start level follows the executor's width; pin it
			// so stage 1 prices the same at every worker count.
			StartLevel: 1,
		},
	}
	env.fields, env.data = dettest.Runs(sh)
	env.diff = newDiffEnv(t, env.opts)
	for ri, runID := range []string{"runA", "runB", "runC"} {
		meta := ckpt.Meta{RunID: runID, Iteration: 10, Rank: 0, Fields: env.fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, env.data[ri]); err != nil {
			t.Fatal(err)
		}
		name := ckpt.Name(runID, 10, 0)
		m, _, err := Build(env.fields, env.data[ri], env.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SaveMetadata(store, name, m); err != nil {
			t.Fatal(err)
		}
		env.names = append(env.names, name)
		dname, _ := env.diff.capture(t, runID, 10, env.fields, env.data[ri])
		env.dnames = append(env.dnames, dname)
	}
	return env
}

// run drives every stage-2 entry point once on exec, each from a cold
// page cache, and returns the wall-stripped outputs.
func (e *detEnv) run(t *testing.T, exec device.Executor) *detOutputs {
	t.Helper()
	ctx := context.Background()
	opts := e.opts
	opts.Exec = exec
	opts.Fields = e.shape.Fields
	sweep := opts
	if e.shape.Degrade {
		opts.Degrade = true
		opts.Backend = flipBackend{inner: fallbackCoalescing(), match: "runB"}
	}
	out := &detOutputs{}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	var err error
	e.store.EvictAll()
	out.Merkle, err = CompareMerkle(ctx, e.store, e.names[0], e.names[1], opts)
	must(err)
	e.store.EvictAll()
	// The direct sweep has no integrity rung: it runs on the clean backend.
	out.Direct, err = CompareDirect(ctx, e.store, e.names[0], e.names[1], sweep)
	must(err)
	e.store.EvictAll()
	out.Star, err = GroupCompare(ctx, e.store, e.names[0], e.names[1:], TopologyStar, opts)
	must(err)
	e.store.EvictAll()
	out.AllPairs, err = GroupCompare(ctx, e.store, e.names[0], e.names[1:], TopologyAllPairs, opts)
	must(err)

	dopts := opts
	dopts.Memo = NewCASMemo(dettest.Eps)
	e.diff.store.EvictAll()
	out.DiffCold, err = CompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1], dopts)
	must(err)
	e.diff.store.EvictAll()
	out.DiffWarm, err = CompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1], dopts)
	must(err)

	for _, r := range []*Result{out.Merkle, out.Direct, out.DiffCold, out.DiffWarm} {
		normResult(r)
	}
	normGroup(out.Star)
	normGroup(out.AllPairs)
	return out
}

// checkOracle holds every entry point's diffs against the element-wise
// oracle: nothing beyond ε missed, nothing within ε reported.
func (e *detEnv) checkOracle(t *testing.T, out *detOutputs) {
	t.Helper()
	check := func(label string, r *Result, a, b int) {
		t.Helper()
		if r.Degraded || r.UnverifiedChunks != 0 {
			t.Errorf("%s: degraded (%d unverified) on a recoverable fault", label, r.UnverifiedChunks)
		}
		assertSameDiffs(t, dettest.Want(e.shape, e.fields, e.data, a, b), diffsToMap(r.Diffs), label)
	}
	if out.Merkle.CandidateChunks == 0 || out.Merkle.DiffCount == 0 {
		t.Fatalf("shape exercises no stage 2: %d candidates, %d diffs", out.Merkle.CandidateChunks, out.Merkle.DiffCount)
	}
	t.Logf("merkle: %d/%d chunks candidates, %d diffs", out.Merkle.CandidateChunks, out.Merkle.TotalChunks, out.Merkle.DiffCount)
	check("merkle", out.Merkle, 0, 1)
	check("direct", out.Direct, 0, 1)
	check("cas-diff cold", out.DiffCold, 0, 1)
	check("cas-diff warm", out.DiffWarm, 0, 1)
	if out.DiffWarm.CASPrunedChunks == 0 && out.DiffCold.CandidateChunks > 0 {
		t.Error("warm memo pruned nothing: the cold run's kernel did not memoize")
	}
	for _, g := range []*GroupReport{out.Star, out.AllPairs} {
		for _, p := range g.Pairs {
			check(fmt.Sprintf("group %s %d-%d", g.Topology, p.A, p.B), p.Result, p.A, p.B)
		}
	}
}

// checkPairIsGroupOfTwo pins the identity the shared stage 1 rests on: a
// pair comparison is the group of two. CompareMerkle(A, B) and the star
// group over the same two members load the same metadata and diff the
// same trees, so every stage-1 output — roots, chunk counts, metadata
// bytes, and the load and tree-diff steps' virtual time — is equal; only
// stage 2 (slice pipeline vs union buffers) prices differently.
func (e *detEnv) checkPairIsGroupOfTwo(t *testing.T, exec device.Executor) {
	t.Helper()
	opts := e.opts
	opts.Exec = exec
	opts.Fields = e.shape.Fields
	e.store.EvictAll()
	pair, err := CompareMerkle(context.Background(), e.store, e.names[0], e.names[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	e.store.EvictAll()
	group, err := GroupCompare(context.Background(), e.store, e.names[0], e.names[1:2], TopologyStar, opts)
	if err != nil {
		t.Fatal(err)
	}
	gp := group.Pairs[0].Result
	if pair.RootA != group.MemberRoots[0] || pair.RootB != group.MemberRoots[1] {
		t.Error("pair roots differ from the group of two's member roots")
	}
	if pair.TotalChunks != gp.TotalChunks || pair.CandidateChunks != gp.CandidateChunks ||
		pair.MetadataBytes != group.MetadataBytes || pair.TotalElements != gp.TotalElements {
		t.Errorf("pair stage 1 (%d chunks, %d candidates, %d metadata bytes, %d elements) differs from the group of two's (%d, %d, %d, %d)",
			pair.TotalChunks, pair.CandidateChunks, pair.MetadataBytes, pair.TotalElements,
			gp.TotalChunks, gp.CandidateChunks, group.MetadataBytes, gp.TotalElements)
	}
	for _, label := range []string{"load-metadata", "tree-diff"} {
		ps, _ := pair.Steps.Get(label)
		gs, ok := group.Steps.Get(label)
		if !ok || ps.Virtual != gs.Virtual {
			t.Errorf("step %s: pair %v virtual, group of two %v", label, ps.Virtual, gs.Virtual)
		}
	}
	assertSameDiffs(t, diffsToMap(pair.Diffs), diffsToMap(gp.Diffs), "pair vs group of two")
}

// firstDifference names the first top-level output that differs.
func firstDifference(a, b *detOutputs) string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return fmt.Sprintf("%s:\n  serial %+v\n  got    %+v", va.Type().Field(i).Name,
				va.Field(i).Elem().Interface(), vb.Field(i).Elem().Interface())
		}
	}
	return "(no field differs)"
}
