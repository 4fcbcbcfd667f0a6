package shard

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/pfs"
)

// This file holds the shard-pair and shard-group rows of the stage-2
// parity table (internal/compare/stage2_determinism_test.go): the same
// shapes, executors and element-wise oracle from internal/dettest, and the
// identity the sharded planner rests on — a sharded pair IS the sharded
// group of two.

// parityEnv is the three runs of one shape as containers with metadata.
type parityEnv struct {
	shape  dettest.Shape
	opts   compare.Options
	store  *pfs.Store
	names  []string
	fields []ckpt.FieldSpec
	data   [][][]byte
}

func newParityEnv(t *testing.T, sh dettest.Shape) *parityEnv {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	e := &parityEnv{shape: sh, store: store, opts: compare.Options{
		Epsilon: sh.Epsilon(), ChunkSize: sh.Chunk, Fields: sh.Fields, Degrade: sh.Degrade,
		// Pinned so stage 1 prices the same at every executor width.
		StartLevel: 1,
	}}
	e.fields, e.data = dettest.Runs(sh)
	for ri, runID := range []string{"runA", "runB", "runC"} {
		if _, err := ckpt.WriteCheckpoint(store, ckpt.Meta{RunID: runID, Iteration: 10, Rank: 0, Fields: e.fields}, e.data[ri]); err != nil {
			t.Fatal(err)
		}
		m, _, err := compare.Build(e.fields, e.data[ri], e.opts)
		if err != nil {
			t.Fatal(err)
		}
		name := ckpt.Name(runID, 10, 0)
		if _, err := compare.SaveMetadata(store, name, m); err != nil {
			t.Fatal(err)
		}
		e.names = append(e.names, name)
	}
	return e
}

// shardOutputs is what one executor produced for one shape, and what
// compare.CompareMerkle did with the same pair.
type shardOutputs struct {
	Pair      *compare.Result
	PairStats *Stats
	Star      *compare.GroupReport
	StarStats *Stats
	Merkle    *compare.Result
}

// run drives both sharded entry points from a cold cache. The degrade
// shape flips one bit in two of run B's reads (seeded, so every executor
// sees the same schedule): the integrity rung must recover both.
func (e *parityEnv) run(t *testing.T, exec device.Executor) *shardOutputs {
	t.Helper()
	ctx := context.Background()
	opts := e.opts
	opts.Exec = exec
	cfg := Config{Workers: 4, Stealing: true, SubtreeChunks: 4}
	arm := func() {
		e.store.EvictAll()
		if e.shape.Degrade {
			e.store.SetFaultHook(faults.New(1,
				faults.Rule{Kind: faults.BitFlip, Name: e.names[1], After: 4},
				faults.Rule{Kind: faults.BitFlip, Name: e.names[1], After: 9}))
		}
	}
	defer e.store.SetFaultHook(nil)
	out := &shardOutputs{}
	var err error
	arm()
	if out.Pair, out.PairStats, err = Compare(ctx, e.store, e.names[0], e.names[1], cfg, opts); err != nil {
		t.Fatal(err)
	}
	arm()
	if out.Star, out.StarStats, err = GroupCompare(ctx, e.store, e.names[0], e.names[1:], compare.TopologyStar, cfg, opts); err != nil {
		t.Fatal(err)
	}
	arm()
	if out.Merkle, err = compare.CompareMerkle(ctx, e.store, e.names[0], e.names[1], opts); err != nil {
		t.Fatal(err)
	}
	dettest.VirtualOnly(out.Pair.Steps)
	dettest.VirtualOnly(out.Star.Steps)
	dettest.VirtualOnly(out.Merkle.Steps)
	return out
}

// checkOracle holds both sharded entry points' diffs against the
// element-wise oracle.
func (e *parityEnv) checkOracle(t *testing.T, out *shardOutputs) {
	t.Helper()
	check := func(label string, r *compare.Result, a, b int) {
		t.Helper()
		if r.Degraded || r.UnverifiedChunks != 0 {
			t.Errorf("%s: degraded (%d unverified) on a recoverable fault", label, r.UnverifiedChunks)
		}
		got := make(map[string][]int64)
		for _, d := range r.Diffs {
			got[d.Field] = d.Indices
		}
		if want := dettest.Want(e.shape, e.fields, e.data, a, b); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: diffs differ from the element-wise oracle", label)
		}
	}
	if !e.shape.Clean() && (out.Pair.CandidateChunks == 0 || out.Pair.DiffCount == 0) {
		t.Fatalf("shape exercises no stage 2: %d candidates, %d diffs", out.Pair.CandidateChunks, out.Pair.DiffCount)
	}
	check("shard pair", out.Pair, 0, 1)
	for _, p := range out.Star.Pairs {
		check("shard group", p.Result, p.A, p.B)
	}
	// The sharded pair's account is CompareMerkle's but for its times — the
	// fleet's makespan is not the pipeline's — and, under a fault schedule,
	// the integrity re-reads: which read a flip lands on follows the order
	// of reads, and the two paths issue different ones.
	pair, merkle := out.Pair.Account, out.Merkle.Account
	pair.Breakdown, pair.Steps = merkle.Breakdown, merkle.Steps
	if e.shape.Degrade {
		pair.BytesRead = merkle.BytesRead
	}
	if !reflect.DeepEqual(pair, merkle) {
		t.Errorf("shard pair account %+v, CompareMerkle's %+v", pair, merkle)
	}
}

func TestShardParityAcrossExecutors(t *testing.T) {
	for _, sh := range slices.Concat(dettest.Shapes(), dettest.CopyShapes()) {
		t.Run(sh.Name, func(t *testing.T) {
			e := newParityEnv(t, sh)
			var ref *shardOutputs
			for _, ex := range dettest.Execs() {
				exec, closeExec := ex.Make()
				out := e.run(t, exec)
				closeExec()
				if ref != nil {
					if !reflect.DeepEqual(ref, out) {
						t.Errorf("%s differs from serial", ex.Name)
					}
					continue
				}
				ref = out
				e.checkOracle(t, out)
			}
		})
	}
	// The stale-scratch sequence through the sharded doors: dense, then
	// clean, then one chunk, back to back on the same free lists.
	t.Run("sequence", func(t *testing.T) {
		var envs []*parityEnv
		for _, sh := range dettest.Sequence() {
			envs = append(envs, newParityEnv(t, sh))
		}
		for _, ex := range dettest.Execs() {
			exec, closeExec := ex.Make()
			for _, e := range envs {
				e.checkOracle(t, e.run(t, exec))
			}
			closeExec()
		}
	})
}

// TestShardPairIsShardGroupOfTwo: Compare(A, B) is GroupCompare(A, [B],
// star) reported as a pair — same diffs and chunk counts, same Stats, same
// value in every virtual column, same step kinds in the same order. Only
// the method string and the open step's label are the pair's own.
func TestShardPairIsShardGroupOfTwo(t *testing.T) {
	for _, sh := range dettest.Shapes() {
		t.Run(sh.Name, func(t *testing.T) {
			e := newParityEnv(t, sh)
			ctx := context.Background()
			opts := e.opts
			opts.Exec = device.Serial{}
			cfg := Config{Workers: 4, Stealing: true, SubtreeChunks: 4}
			e.store.EvictAll()
			pair, pairStats, err := Compare(ctx, e.store, e.names[0], e.names[1], cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			e.store.EvictAll()
			group, groupStats, err := GroupCompare(ctx, e.store, e.names[0], e.names[1:2], compare.TopologyStar, cfg, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(pairStats, groupStats) {
				t.Errorf("Stats differ:\n  pair  %+v\n  group %+v", *pairStats, *groupStats)
			}
			dettest.VirtualOnly(pair.Steps)
			dettest.VirtualOnly(group.Steps)
			if len(pair.Steps) != len(group.Steps) {
				t.Fatalf("pair plan has %d steps, group of two %d", len(pair.Steps), len(group.Steps))
			}
			for i, ps := range pair.Steps {
				if gs := group.Steps[i]; ps.Kind != gs.Kind || ps.Span != gs.Span {
					t.Errorf("step %d: pair %s %v, group of two %s %v", i, ps.Kind, ps.Span, gs.Kind, gs.Span)
				}
			}
			// The pair's Result is the group's one pair result plus the
			// group-level totals.
			want := *group.Pairs[0].Result
			want.Method = "merkle-shard"
			want.RootA, want.RootB = group.MemberRoots[0], group.MemberRoots[1]
			want.BytesRead, want.ReadRetries = group.BytesRead, group.ReadRetries
			want.Breakdown, want.Steps = group.Breakdown, pair.Steps
			if !reflect.DeepEqual(*pair, want) {
				t.Errorf("pair result differs from the group of two's:\n  pair  %+v\n  group %+v", *pair, want)
			}
		})
	}
}
