package compare

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/metrics"
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

func normResult(r *Result) *Result {
	dettest.VirtualOnly(r.Steps)
	return r
}

func normGroup(g *GroupReport) *GroupReport {
	dettest.VirtualOnly(g.Steps)
	for i := range g.Pairs {
		normResult(g.Pairs[i].Result)
	}
	return g
}

// detOutputs is everything one executor produced for one shape.
type detOutputs struct {
	Merkle, Direct, DiffCold, DiffWarm     *Result
	Star, AllPairs, DiffStar, DiffAllPairs *GroupReport
	// AllClose is the verdict of CompareAllClose, the one door that
	// answers without saying where, one field at a time: on runs A and B,
	// on A and B healed (every difference left is one the oracle accepts),
	// and on A and B healed but for one divergence, so that the verdict
	// turns on that element alone.
	AllClose [3][3]bool
}

func TestStage2DeterministicAcrossExecutors(t *testing.T) {
	for _, sh := range slices.Concat(dettest.Shapes(), dettest.CopyShapes()) {
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
					env.checkWindowsDoNotMatter(t, exec, out)
					continue
				}
				if !reflect.DeepEqual(ref, out) {
					t.Errorf("%s differs from serial:\n%s", ex.Name, firstDifference(ref, out))
				}
			}
		})
	}
	// The stale-scratch sequence: every door, dense then clean then one
	// chunk, back to back on the free lists (request batches, kernel
	// scratch) every comparison in the process shares.
	t.Run("sequence", func(t *testing.T) {
		var envs []*detEnv
		for _, sh := range dettest.Sequence() {
			envs = append(envs, newDetEnv(t, sh))
		}
		for _, ex := range dettest.Execs() {
			exec, closeExec := ex.Make()
			for _, env := range envs {
				env.checkOracle(t, env.run(t, exec))
			}
			closeExec()
		}
	})
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
	// healed is run B with A's value wherever the oracle tells them apart:
	// what still differs is within ε, a NaN against a NaN, or −0 against +0.
	healed     [][]byte
	healedName string
	// oneLeft is healed with B's value back at the hardest divergence the
	// oracle names in each field (see hardest).
	oneLeft     [][]byte
	oneLeftName string
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
			Epsilon: sh.Epsilon(), ChunkSize: sh.Chunk, SliceBytes: sh.SliceBytes,
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
	for fi := range env.fields {
		a, b := env.data[0][fi], env.data[1][fi]
		h := append([]byte(nil), b...)
		diffs := dettest.OracleDiffs(a, b, sh.Epsilon())
		for _, i := range diffs {
			copy(h[4*i:4*i+4], a[4*i:])
		}
		one := append([]byte(nil), h...)
		if len(diffs) > 0 {
			i := hardest(a, b, diffs)
			copy(one[4*i:4*i+4], b[4*i:])
		}
		env.healed = append(env.healed, h)
		env.oneLeft = append(env.oneLeft, one)
	}
	write := func(run string, data [][]byte) string {
		if _, err := ckpt.WriteCheckpoint(store, ckpt.Meta{RunID: run, Iteration: 10, Rank: 0, Fields: env.fields}, data); err != nil {
			t.Fatal(err)
		}
		return ckpt.Name(run, 10, 0)
	}
	env.healedName = write("runBhealed", env.healed)
	env.oneLeftName = write("runBoneLeft", env.oneLeft)
	return env
}

// hardest returns the divergence of b from a (one of diffs) that an ε
// comparison is likeliest to let through: a NaN against a finite value if
// there is one, else the smallest difference past ε.
func hardest(a, b []byte, diffs []int64) int64 {
	at := func(p []byte, i int64) float64 {
		return float64(math.Float32frombits(binary.LittleEndian.Uint32(p[4*i:])))
	}
	best, gap := diffs[0], math.Inf(1)
	for _, i := range diffs {
		x, y := at(a, i), at(b, i)
		if math.IsNaN(x) != math.IsNaN(y) && !math.IsInf(x, 0) && !math.IsInf(y, 0) {
			return i
		}
		if d := math.Abs(x - y); d < gap {
			best, gap = i, d
		}
	}
	return best
}

// optsOn returns the shape's options on exec: under Degrade every read of
// run B's container lands with a flipped bit the integrity rung must
// re-read away.
func (e *detEnv) optsOn(exec device.Executor) Options {
	opts := e.opts
	opts.Exec = exec
	opts.Fields = e.shape.Fields
	if e.shape.Degrade {
		opts.Degrade = true
		opts.Backend = flipBackend{inner: aio.Default(), match: "runB", chunk: e.shape.Chunk}
	}
	return opts
}

// groups runs the four group entry points, each from a cold page cache.
func (e *detEnv) groups(t *testing.T, opts Options) (star, allPairs, diffStar, diffAllPairs *GroupReport) {
	t.Helper()
	ctx := context.Background()
	run := func(topology Topology, differential bool) *GroupReport {
		t.Helper()
		var rep *GroupReport
		var err error
		if differential {
			e.diff.store.EvictAll()
			rep, err = GroupCompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1:], topology, opts)
		} else {
			e.store.EvictAll()
			rep, err = GroupCompare(ctx, e.store, e.names[0], e.names[1:], topology, opts)
		}
		if err != nil {
			t.Fatal(err)
		}
		return normGroup(rep)
	}
	return run(TopologyStar, false), run(TopologyAllPairs, false), run(TopologyStar, true), run(TopologyAllPairs, true)
}

// run drives every stage-2 entry point once on exec, each from a cold
// page cache, and returns the wall-stripped outputs.
func (e *detEnv) run(t *testing.T, exec device.Executor) *detOutputs {
	t.Helper()
	ctx := context.Background()
	opts := e.optsOn(exec)
	sweep := opts
	sweep.Degrade, sweep.Backend = false, nil
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
	out.Star, out.AllPairs, out.DiffStar, out.DiffAllPairs = e.groups(t, opts)
	for bi, b := range []string{e.names[1], e.healedName, e.oneLeftName} {
		for fi, f := range e.fields {
			one := sweep
			one.Fields = []string{f.Name}
			e.store.EvictAll()
			out.AllClose[bi][fi], _, err = CompareAllClose(ctx, e.store, e.names[0], b, one)
			must(err)
		}
	}

	dopts := opts
	dopts.Memo = NewCASMemo(e.shape.Epsilon())
	e.diff.store.EvictAll()
	out.DiffCold, err = CompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1], dopts)
	must(err)
	e.diff.store.EvictAll()
	out.DiffWarm, err = CompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1], dopts)
	must(err)

	for _, r := range []*Result{out.Merkle, out.Direct, out.DiffCold, out.DiffWarm} {
		normResult(r)
	}
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
	if !e.shape.Clean() && (out.Merkle.CandidateChunks == 0 || out.Merkle.DiffCount == 0) {
		t.Fatalf("shape exercises no stage 2: %d candidates, %d diffs", out.Merkle.CandidateChunks, out.Merkle.DiffCount)
	}
	t.Logf("merkle: %d/%d chunks candidates, %d diffs; allclose by field %v, healed %v, healed but one %v",
		out.Merkle.CandidateChunks, out.Merkle.TotalChunks, out.Merkle.DiffCount, out.AllClose[0], out.AllClose[1], out.AllClose[2])
	check("merkle", out.Merkle, 0, 1)
	check("direct", out.Direct, 0, 1)
	check("cas-diff cold", out.DiffCold, 0, 1)
	check("cas-diff warm", out.DiffWarm, 0, 1)
	for bi, b := range [][][]byte{e.data[1], e.healed, e.oneLeft} {
		for fi, f := range e.fields {
			if want := len(dettest.OracleDiffs(e.data[0][fi], b[fi], e.shape.Epsilon())) == 0; out.AllClose[bi][fi] != want {
				t.Errorf("allclose %s against %s: %v, the element-wise oracle says %v",
					f.Name, []string{"B", "B healed", "B healed but one"}[bi], out.AllClose[bi][fi], want)
			}
		}
	}
	if out.DiffWarm.CASPrunedChunks == 0 && out.DiffCold.CandidateChunks > 0 {
		t.Error("warm memo pruned nothing: the cold run's kernel did not memoize")
	}
	for _, g := range []*GroupReport{out.Star, out.AllPairs, out.DiffStar, out.DiffAllPairs} {
		var sum Account
		for _, p := range g.Pairs {
			check(fmt.Sprintf("%s %s %d-%d", p.Result.Method, g.Topology, p.A, p.B), p.Result, p.A, p.B)
			a := &p.Result.Account
			sum.DiffCount += a.DiffCount
			sum.Degraded = sum.Degraded || a.Degraded
			sum.UnverifiedChunks += a.UnverifiedChunks
			sum.TotalChunks += a.TotalChunks
			sum.CandidateChunks += a.CandidateChunks
			sum.ChangedChunks += a.ChangedChunks
			sum.CASPrunedChunks += a.CASPrunedChunks
		}
		if got := verdictAndChunks(g.Account); !reflect.DeepEqual(got, sum) {
			t.Errorf("%s %s account %+v, its pairs' sum %+v", g.Pairs[0].Result.Method, g.Topology, got, sum)
		}
	}
}

// verdictAndChunks is an account's verdict and chunk counts alone: what a
// group's account sums over its pairs.
func verdictAndChunks(a Account) Account {
	return Account{DiffCount: a.DiffCount, Degraded: a.Degraded, UnverifiedChunks: a.UnverifiedChunks,
		TotalChunks: a.TotalChunks, CandidateChunks: a.CandidateChunks, ChangedChunks: a.ChangedChunks,
		CASPrunedChunks: a.CASPrunedChunks}
}

// checkPairIsGroupOfTwo pins the identity the shared stages rest on: a pair
// comparison is the group of two. CompareMerkle(A, B) and the star group
// over the same two members (and CompareDiff and GroupCompareDiff likewise)
// load the same metadata, diff the same trees and stream the same plan
// through the same reader, so every output — roots, chunk counts, diffs,
// unverified counts, bytes read, the virtual time of every step, and the
// PFS operations and bytes the store saw — is equal.
func (e *detEnv) checkPairIsGroupOfTwo(t *testing.T, exec device.Executor) {
	t.Helper()
	ctx := context.Background()
	opts := e.optsOn(exec)
	measured := func(store *pfs.Store, run func() error) (ops, bytes int64) {
		t.Helper()
		store.EvictAll()
		ops0, bytes0 := store.ReadStats()
		if err := run(); err != nil {
			t.Fatal(err)
		}
		ops, bytes = store.ReadStats()
		return ops - ops0, bytes - bytes0
	}
	check := func(label string, pair *Result, pairOps, pairBytes int64, group *GroupReport, groupOps, groupBytes int64) {
		t.Helper()
		gp := group.Pairs[0].Result
		if pair.RootA != group.MemberRoots[0] || pair.RootB != group.MemberRoots[1] {
			t.Errorf("%s: pair roots differ from the group of two's member roots", label)
		}
		type counts struct {
			total, candidate, pruned, changed, unverified int
			elements, diffs, metadata, bytesRead          int64
			degraded                                      bool
		}
		pc := counts{pair.TotalChunks, pair.CandidateChunks, pair.CASPrunedChunks, pair.ChangedChunks, pair.UnverifiedChunks,
			pair.TotalElements, pair.DiffCount, pair.MetadataBytes, pair.BytesRead, pair.Degraded}
		gc := counts{gp.TotalChunks, gp.CandidateChunks, gp.CASPrunedChunks, gp.ChangedChunks, gp.UnverifiedChunks,
			gp.TotalElements, gp.DiffCount, group.MetadataBytes, group.BytesRead, gp.Degraded}
		if pc != gc {
			t.Errorf("%s: pair %+v, group of two %+v", label, pc, gc)
		}
		if !reflect.DeepEqual(pair.Diffs, gp.Diffs) {
			t.Errorf("%s: pair diffs differ from the group of two's", label)
		}
		if pv := pair.Breakdown.Get(metrics.PhaseCompareDirect).Virtual; pv != group.PipelineVirtual {
			t.Errorf("%s: pair pipeline %v virtual, group of two %v", label, pv, group.PipelineVirtual)
		}
		if len(pair.Steps) != len(group.Steps) {
			t.Fatalf("%s: pair plan has %d steps, group of two %d", label, len(pair.Steps), len(group.Steps))
		}
		for i, ps := range pair.Steps {
			if gs := group.Steps[i]; ps.Kind != gs.Kind || ps.Span.Virtual != gs.Span.Virtual {
				t.Errorf("%s: step %d: pair %s %v virtual, group of two %s %v", label, i, ps.Kind, ps.Span.Virtual, gs.Kind, gs.Span.Virtual)
			}
		}
		if pairOps != groupOps || pairBytes != groupBytes || groupOps != group.ReadOps || groupBytes != group.ReadBytes {
			t.Errorf("%s: pair issued %d ops / %d bytes, group of two %d / %d (reported %d / %d)",
				label, pairOps, pairBytes, groupOps, groupBytes, group.ReadOps, group.ReadBytes)
		}
	}

	var pair *Result
	var group *GroupReport
	var err error
	pairOps, pairBytes := measured(e.store, func() error {
		pair, err = CompareMerkle(ctx, e.store, e.names[0], e.names[1], opts)
		return err
	})
	groupOps, groupBytes := measured(e.store, func() error {
		group, err = GroupCompare(ctx, e.store, e.names[0], e.names[1:2], TopologyStar, opts)
		return err
	})
	check("container", pair, pairOps, pairBytes, group, groupOps, groupBytes)

	pairOps, pairBytes = measured(e.diff.store, func() error {
		pair, err = CompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1], opts)
		return err
	})
	groupOps, groupBytes = measured(e.diff.store, func() error {
		group, err = GroupCompareDiff(ctx, e.diff.store, e.diff.cs, e.dnames[0], e.dnames[1:2], TopologyStar, opts)
		return err
	})
	check("differential", pair, pairOps, pairBytes, group, groupOps, groupBytes)
}

// checkWindowsDoNotMatter pins the group planners on the windowed reader:
// where the shape's SliceBytes cuts a member's candidates into three
// windows or more, every pair's verdict equals the one-window run's.
func (e *detEnv) checkWindowsDoNotMatter(t *testing.T, exec device.Executor, out *detOutputs) {
	t.Helper()
	if e.shape.SliceBytes == 0 {
		return
	}
	windowed := []*GroupReport{out.Star, out.AllPairs, out.DiffStar, out.DiffAllPairs}
	opts := e.optsOn(exec)
	opts.SliceBytes = 1 << 30
	star, allPairs, diffStar, diffAllPairs := e.groups(t, opts)
	for gi, one := range []*GroupReport{star, allPairs, diffStar, diffAllPairs} {
		got, multi := windowed[gi], false
		for pi, p := range one.Pairs {
			want, have := p.Result, got.Pairs[pi].Result
			label := fmt.Sprintf("%s %s %d-%d", want.Method, one.Topology, p.A, p.B)
			if !reflect.DeepEqual(want.Diffs, have.Diffs) {
				t.Errorf("%s: diffs at %d-byte windows differ from the one-window run's", label, e.shape.SliceBytes)
			}
			if want.ChangedChunks != have.ChangedChunks || want.CandidateChunks != have.CandidateChunks ||
				want.UnverifiedChunks != have.UnverifiedChunks || want.Degraded != have.Degraded {
				t.Errorf("%s: counts at %d-byte windows differ from the one-window run's", label, e.shape.SliceBytes)
			}
			// One member of this pair alone spans three windows.
			streamed := want.CandidateChunks - want.CASPrunedChunks
			multi = multi || streamed*e.shape.Chunk >= 3*e.shape.SliceBytes
		}
		if e.shape.Name == "many-slices" && !multi {
			t.Errorf("%s %s: the shape no longer cuts a member into three windows", one.Pairs[0].Result.Method, one.Topology)
		}
	}
}

// firstDifference names the first top-level output that differs.
func firstDifference(a, b *detOutputs) string {
	va, vb := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < va.NumField(); i++ {
		fa, fb := va.Field(i), vb.Field(i)
		if !reflect.DeepEqual(fa.Interface(), fb.Interface()) {
			if fa.Kind() == reflect.Pointer {
				fa, fb = fa.Elem(), fb.Elem()
			}
			return fmt.Sprintf("%s:\n  serial %+v\n  got    %+v", va.Type().Field(i).Name, fa.Interface(), fb.Interface())
		}
	}
	return "(no field differs)"
}

// TestCASPairWindowsCutPerSide pins where a differential pair's windows
// close. SliceBytes bounds one side of a window, and the pack holds both
// sides of every job, so CompareDiff closes a window at SliceBytes per side
// — where the two-file slice pipeline it replaced did — not at SliceBytes
// of pack bytes, which would double the windows, the batched reads and the
// kernel launches. The store's read operations and bytes and the pipeline's
// virtual time are the values recorded before the readers were unified
// (PR 14); they move only if the storage or device model does.
func TestCASPairWindowsCutPerSide(t *testing.T) {
	want := map[string]struct {
		candidates int
		ops, bytes int64
		pipeline   time.Duration
	}{
		"few-pairs-per-slice": {88, 16, 1133348, 1422164},
		"many-slices":         {192, 52, 6314788, 6008002},
	}
	for _, sh := range dettest.Shapes() {
		w, ok := want[sh.Name]
		if !ok {
			continue
		}
		t.Run(sh.Name, func(t *testing.T) {
			opts := Options{Epsilon: dettest.Eps, ChunkSize: sh.Chunk, SliceBytes: sh.SliceBytes, StartLevel: 1}
			fields, data := dettest.Runs(sh)
			env := newDiffEnv(t, opts)
			a, _ := env.capture(t, "runA", 10, fields, data[0])
			b, _ := env.capture(t, "runB", 10, fields, data[1])
			env.store.EvictAll()
			ops0, bytes0 := env.store.ReadStats()
			r, err := CompareDiff(context.Background(), env.store, env.cs, a, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			ops, bytes := env.store.ReadStats()
			if streamed := r.CandidateChunks * sh.Chunk; r.CandidateChunks != w.candidates || streamed < 3*sh.SliceBytes {
				t.Fatalf("%d candidates, want %d and at least three windows of them", r.CandidateChunks, w.candidates)
			}
			if ops-ops0 != w.ops || bytes-bytes0 != w.bytes {
				t.Errorf("store saw %d ops / %d bytes, want %d / %d", ops-ops0, bytes-bytes0, w.ops, w.bytes)
			}
			if got := r.Breakdown.Get(metrics.PhaseCompareDirect).Virtual; got != w.pipeline {
				t.Errorf("pipeline %d ns virtual, want %d", got, w.pipeline)
			}
		})
	}
}
