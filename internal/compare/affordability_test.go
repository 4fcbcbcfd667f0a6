package compare

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/merkle"
	"repro/internal/pfs"
	"repro/internal/synth"
)

func virtualMs(r *Result) float64 { return float64(r.VirtualElapsed()) / float64(time.Millisecond) }

// TestGroupMatchesBaseline holds N-run group comparison against its
// pairwise equivalent to testdata/group.golden, the numbers it was first
// recorded with. One baseline and eight replicas of three 1 Mi-element
// float32 fields, each replica its own clustered perturbation beyond
// ε = 1e-7, metadata at 64 KiB chunks; for N = 2, 4 and 8, the baseline
// against the first N replicas as N cold CompareMerkle calls (each pair
// loads the baseline's metadata and reads its shared candidates again),
// then as one cold star plan: store-level read ops and bytes, summed
// virtual time and divergent elements. The plan must find the same
// elements reading strictly fewer ops and bytes. A one-worker executor
// makes the table the same at any GOMAXPROCS.
func TestGroupMatchesBaseline(t *testing.T) {
	ctx := context.Background()
	const elems, nFields, chunk, eps = 1 << 20, 3, 64 << 10, 1e-7
	opts := baseOpts(eps, chunk)
	opts.Exec = device.Serial{}
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	fields := f32Fields([]string{"f0", "f1", "f2"}, elems)
	var names []string // the baseline, then the replicas
	for i := 0; i <= 8; i++ {
		pert := synth.DefaultPerturb(int64(1000 + i))
		pert.MagLo, pert.MagHi = 1e-3, 1e-2
		base, replica := synth.RunPair(elems, nFields, 42, pert)
		runID, data := fmt.Sprintf("run%02d", i), replica
		if i == 0 {
			runID, data = "baseline", base
		}
		if _, err := ckpt.WriteCheckpoint(store, ckpt.Meta{RunID: runID, Fields: fields}, data); err != nil {
			t.Fatal(err)
		}
		names = append(names, ckpt.Name(runID, 0, 0))
		if _, _, err := BuildAndSave(ctx, store, names[i], opts); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	dettest.Row(t, &out, "workload", map[string]any{"field_elems": elems, "fields": nFields, "chunk_bytes": chunk,
		"epsilon": eps, "checkpoint_bytes": int64(elems) * 4 * nFields})
	for _, n := range []int{2, 4, 8} {
		store.EvictAll()
		ops0, bytes0 := store.ReadStats()
		var pairMs float64
		var pairDiffs, groupDiffs int64
		for _, name := range names[1 : n+1] {
			res, err := CompareMerkle(ctx, store, names[0], name, opts)
			if err != nil {
				t.Fatal(err)
			}
			pairMs += virtualMs(res)
			pairDiffs += res.DiffCount
		}
		ops1, bytes1 := store.ReadStats()
		pairOps, pairBytes := ops1-ops0, bytes1-bytes0
		store.EvictAll()
		grp, err := GroupCompare(ctx, store, names[0], names[1:n+1], TopologyStar, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range grp.Pairs {
			groupDiffs += p.Result.DiffCount
		}
		dettest.Row(t, &out, "scenarios", map[string]any{"runs": n, "topology": TopologyStar.String(),
			"pairwise": map[string]any{"read_ops": pairOps, "read_bytes": pairBytes, "virtual_ms": pairMs, "diffs": pairDiffs},
			"group": map[string]any{"read_ops": grp.ReadOps, "read_bytes": grp.ReadBytes,
				"virtual_ms": float64(grp.Breakdown.Total().Virtual) / float64(time.Millisecond), "diffs": groupDiffs},
			"read_ops_saved_frac":   1 - float64(grp.ReadOps)/float64(pairOps),
			"read_bytes_saved_frac": 1 - float64(grp.ReadBytes)/float64(pairBytes)})
		if groupDiffs != pairDiffs || grp.ReadOps >= pairOps || grp.ReadBytes >= pairBytes {
			t.Errorf("N=%d: the group plan finds %d elements in %d ops, %d bytes; pairwise %d in %d ops, %d bytes",
				n, groupDiffs, grp.ReadOps, grp.ReadBytes, pairDiffs, pairOps, pairBytes)
		}
	}
	dettest.Golden(t, "testdata/group.golden", out.Bytes())
}

// stage2Side is one cold comparison of a pair in TestCaptureMatchesBaseline,
// its fields in the golden's (sorted) key order.
type stage2Side struct {
	Candidates int     `json:"candidate_chunks"`
	CASPruned  int     `json:"cas_pruned_chunks"`
	Changed    int     `json:"changed_chunks"`
	Diffs      int64   `json:"diffs"`
	ReadBytes  int64   `json:"read_bytes"`
	ReadOps    int64   `json:"read_ops"`
	VirtualMs  float64 `json:"virtual_ms"`
}

// TestCaptureMatchesBaseline holds differential capture against classic
// checkpointing to testdata/capture.golden, the numbers it was first
// recorded with. Two runs of three 512 Ki-element float32 fields evolve
// over six iterations (64 KiB chunks, ε = 1e-5). Per field a chunk-aligned
// divergent region separates run B from run A at every iteration, a churn
// region evolves identically in both, the rest is static; at (divergent,
// churn) = (2 %, 10 %), (10 %, 30 %) and (30 %, 60 %) every iteration is
// captured as one container and differentially into one CAS, A before B.
// A level's line: bytes both ways and the dedup counts; one capture into
// an empty CAS against one container (the cold premium); the warm
// captures' incremental tree updates and whether run A's final roots equal
// a rebuild from its manifest; stage 2 on the final pair, cold, four ways:
// CompareMerkle, CompareDiff, CompareDiff with a warmed memo and
// CompareDiff in windows of four chunks. Every way must find the same
// elements and chunks, the memo must read less than both of the first two,
// and at low divergence capture must save at least 40 % of the bytes.
func TestCaptureMatchesBaseline(t *testing.T) {
	ctx := context.Background()
	const elems, nFields, chunk, iters, eps = 1 << 19, 3, 64 << 10, 6, 1e-5
	opts := baseOpts(eps, chunk)
	opts.Exec = device.Serial{}
	fields := f32Fields([]string{"f0", "f1", "f2"}, elems)
	// perturb moves a region far beyond ε: every chunk it covers changes
	// its digest.
	perturb := func(region []byte, seed int64) []byte {
		return synth.PerturbF32(region, synth.PerturbConfig{Seed: seed, BlockElems: 256, MagLo: 1e-3, MagHi: 1e-2, ChangedFrac: 0.5})
	}
	// align is a fraction of a field in bytes, rounded up to whole chunks.
	align := func(frac float64) int { return min(4*elems, (int(frac*elems)+chunk/4-1)/(chunk/4)*chunk) }
	var out bytes.Buffer
	dettest.Row(t, &out, "workload", map[string]any{"field_elems": elems, "fields": nFields, "chunk_bytes": chunk,
		"epsilon": eps, "iterations": iters, "runs": 2, "checkpoint_bytes": int64(elems) * 4 * nFields})
	for _, lv := range []struct {
		name       string
		div, churn float64
	}{{"low", 0.02, 0.10}, {"medium", 0.10, 0.30}, {"high", 0.30, 0.60}} {
		div, churn := align(lv.div), align(lv.churn)
		var base, bDiv [][]byte
		for fi := range fields {
			base = append(base, synth.FieldF32(elems, int64(100+fi)))
			bDiv = append(bDiv, perturb(base[fi][:div], int64(555+fi)))
		}
		full, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
		if err != nil {
			t.Fatal(err)
		}
		env := newDiffEnv(t, opts)
		var fullBytes, fullIter, diffBytes, packBytes int64
		var offered, hits, written, warm, leaves, nodes int
		var firstA [][]byte
		for it := 1; it <= iters; it++ {
			var a, b [][]byte
			for fi := range base {
				af := slices.Clone(base[fi])
				copy(af[div:], perturb(base[fi][div:div+churn], int64(10_000*it+fi)))
				bf := slices.Clone(af)
				copy(bf, bDiv[fi])
				a, b = append(a, af), append(b, bf)
			}
			if it == 1 {
				firstA = a
			}
			for _, side := range []struct {
				run  string
				data [][]byte
			}{{"runA", a}, {"runB", b}} {
				cost, err := ckpt.WriteCheckpoint(full, ckpt.Meta{RunID: side.run, Iteration: it, Fields: fields}, side.data)
				if err != nil {
					t.Fatal(err)
				}
				if fullBytes == 0 {
					fullIter = cost.Bytes
				}
				fullBytes += cost.Bytes
				_, rep := env.capture(t, side.run, it, fields, side.data)
				diffBytes, packBytes = diffBytes+rep.Cost.Bytes, packBytes+rep.Stats.BytesWritten
				offered, hits, written = offered+rep.Stats.Chunks, hits+rep.Stats.DedupHits, written+rep.Stats.ChunksWritten
				if !rep.Cold {
					warm, leaves, nodes = warm+1, leaves+rep.UpdatedLeaves, nodes+rep.RehashedNodes
				}
			}
		}
		_, cold := newDiffEnv(t, opts).capture(t, "runA", 1, fields, firstA)

		nameA, nameB := ckpt.Name("runA", iters, 0), ckpt.Name("runB", iters, 0)
		man, _, err := cas.LoadManifest(ctx, env.store, nameA)
		if err != nil {
			t.Fatal(err)
		}
		meta, _, _, err := LoadMetadata(ctx, env.store, nameA)
		if err != nil {
			t.Fatal(err)
		}
		rootsMatch := true
		for fi := range man.Fields {
			fm := &man.Fields[fi]
			tr, err := merkle.New(fm.Bytes(), man.ChunkSize, fm.Digests)
			if err != nil {
				t.Fatal(err)
			}
			tr.Build(opts.Exec)
			rootsMatch = rootsMatch && tr.Root() == meta.Fields[fi].Tree.Root()
		}

		for _, n := range []string{nameA, nameB} {
			if _, _, err := BuildAndSave(ctx, full, n, opts); err != nil {
				t.Fatal(err)
			}
		}
		measure := func(store *pfs.Store, cmp func() (*Result, error)) stage2Side {
			store.EvictAll()
			ops0, bytes0 := store.ReadStats()
			res, err := cmp()
			if err != nil {
				t.Fatal(err)
			}
			ops1, bytes1 := store.ReadStats()
			return stage2Side{res.CandidateChunks, res.CASPrunedChunks, res.ChangedChunks, res.DiffCount, bytes1 - bytes0, ops1 - ops0, virtualMs(res)}
		}
		diff := func(o Options) func() (*Result, error) {
			return func() (*Result, error) { return CompareDiff(ctx, env.store, env.cs, nameA, nameB, o) }
		}
		classic := measure(full, func() (*Result, error) { return CompareMerkle(ctx, full, nameA, nameB, opts) })
		noMemo := measure(env.store, diff(opts))
		memoOpts, windowed := opts, opts
		memoOpts.Memo = NewCASMemo(eps)
		if _, err := diff(memoOpts)(); err != nil { // warms the memo
			t.Fatal(err)
		}
		memo := measure(env.store, diff(memoOpts))
		windowed.SliceBytes = 4 * chunk
		inWindows := measure(env.store, diff(windowed))

		saved := 1 - float64(diffBytes)/float64(fullBytes)
		dettest.Row(t, &out, "levels", map[string]any{"name": lv.name, "divergent_frac": lv.div, "churn_frac": lv.churn,
			"capture": map[string]any{"full_bytes": fullBytes, "diff_bytes": diffBytes, "bytes_saved_frac": saved,
				"chunks_offered": offered, "dedup_hits": hits, "dedup_hit_rate": float64(hits) / float64(offered),
				"chunks_written": written, "pack_bytes_written": packBytes, "cold_capture_bytes": cold.Cost.Bytes,
				"full_capture_bytes_per_iter": fullIter, "cold_overhead_frac": float64(cold.Cost.Bytes)/float64(fullIter) - 1},
			"tree":   map[string]any{"warm_captures": warm, "updated_leaves": leaves, "rehashed_nodes": nodes, "roots_match_rebuild": rootsMatch},
			"stage2": map[string]any{"classic": classic, "diff_no_memo": noMemo, "diff_memo": memo, "diff_no_memo_windowed": inWindows}})
		for _, s := range []stage2Side{noMemo, memo, inWindows} {
			if s.Diffs != classic.Diffs || s.Changed != classic.Changed {
				t.Errorf("%s: the comparison paths disagree: %+v against classic %+v", lv.name, s, classic)
			}
		}
		if !rootsMatch {
			t.Errorf("%s: incrementally maintained roots differ from a rebuild", lv.name)
		}
		if memo.ReadOps >= min(noMemo.ReadOps, classic.ReadOps) {
			t.Errorf("%s: memoized reads (%d ops) not below unmemoized (%d) and classic (%d)", lv.name, memo.ReadOps, noMemo.ReadOps, classic.ReadOps)
		}
		if lv.name == "low" && saved < 0.40 {
			t.Errorf("low: capture saves %.1f %% of the bytes, below the 40 %% floor", 100*saved)
		}
	}
	dettest.Golden(t, "testdata/capture.golden", out.Bytes())
}
