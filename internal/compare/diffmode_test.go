package compare

import (
	"context"
	"slices"
	"testing"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// diffEnv holds a store with a shared CAS and a capturer per run, the
// differential counterpart of testEnv.
type diffEnv struct {
	store *pfs.Store
	cs    *cas.Store
	caps  map[string]*DiffCapturer
	opts  Options
}

func newDiffEnv(t *testing.T, opts Options) *diffEnv {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	cs, _, err := cas.Open(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	return &diffEnv{store: store, cs: cs, caps: make(map[string]*DiffCapturer), opts: opts}
}

// capture differentially captures one iteration of one run and returns
// its canonical checkpoint name.
func (e *diffEnv) capture(t *testing.T, runID string, it int, fields []ckpt.FieldSpec, data [][]byte) (string, *DiffCaptureReport) {
	t.Helper()
	c, ok := e.caps[runID]
	if !ok {
		var err error
		c, err = NewDiffCapturer(e.store, e.cs, e.opts)
		if err != nil {
			t.Fatal(err)
		}
		e.caps[runID] = c
	}
	meta := ckpt.Meta{RunID: runID, Iteration: it, Rank: 0, Fields: fields}
	rep, err := c.Capture(context.Background(), meta, data)
	if err != nil {
		t.Fatal(err)
	}
	return ckpt.Name(runID, it, 0), rep
}

func f32Fields(names []string, elems int) []ckpt.FieldSpec {
	fields := make([]ckpt.FieldSpec, len(names))
	for i, n := range names {
		fields[i] = ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: int64(elems)}
	}
	return fields
}

// evolve perturbs every field, standing in for one simulation step.
func evolve(data [][]byte, seed int64) [][]byte {
	out := make([][]byte, len(data))
	for i := range data {
		out[i] = synth.PerturbF32(data[i], synth.PerturbConfig{
			Seed:          seed + int64(i),
			BlockElems:    1024,
			MagLo:         1e-3,
			MagHi:         1e-2,
			UntouchedFrac: 0.6,
			ChangedFrac:   0.05,
		})
	}
	return out
}

// TestDiffCaptureGoldenIncrementalRoot is the golden equivalence test of
// the incremental capture path: after every warm capture, the
// incrementally updated tree saved by DiffCapturer must be bit-identical
// to a full rebuild — both from the manifest's digests and from the raw
// data itself.
func TestDiffCaptureGoldenIncrementalRoot(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newDiffEnv(t, opts)
	const elems = 16 << 10
	fields := f32Fields([]string{"x", "vx"}, elems)
	data := [][]byte{synth.FieldF32(elems, 1), synth.FieldF32(elems, 2)}

	for it := 1; it <= 4; it++ {
		name, rep := env.capture(t, "runA", it, fields, data)
		if it == 1 {
			if !rep.Cold {
				t.Fatal("first capture must be cold")
			}
		} else {
			if rep.Cold {
				t.Fatalf("iteration %d went cold with a prior manifest", it)
			}
			if rep.UpdatedLeaves == 0 || rep.RehashedNodes == 0 {
				t.Fatalf("iteration %d: evolution updated %d leaves / %d nodes, want > 0",
					it, rep.UpdatedLeaves, rep.RehashedNodes)
			}
		}

		saved, _, _, err := LoadMetadata(context.Background(), env.store, name)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := Build(fields, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		for fi := range fields {
			if saved.Fields[fi].Tree.Root() != full.Fields[fi].Tree.Root() {
				t.Fatalf("iteration %d field %s: incremental root differs from raw-data rebuild", it, fields[fi].Name)
			}
			fm := &rep.Manifest.Fields[fi]
			rt, err := merkle.New(fm.Bytes(), rep.Manifest.ChunkSize, fm.Digests)
			if err != nil {
				t.Fatal(err)
			}
			rt.Build(opts.Exec)
			if saved.Fields[fi].Tree.Root() != rt.Root() {
				t.Fatalf("iteration %d field %s: incremental root differs from manifest rebuild", it, fields[fi].Name)
			}
		}
		data = evolve(data, int64(100*it))
	}
}

// TestCompareDiffMatchesMerkle: the differential comparison of a pair
// captured through the shared CAS must report exactly the diffs the
// classic two-file comparison (and ground truth) reports.
func TestCompareDiffMatchesMerkle(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	classic := newEnv(t, 64<<10, opts, synth.DefaultPerturb(7))
	env := newDiffEnv(t, opts)
	fields := classic.meta.Fields
	nameA, _ := env.capture(t, "runA", 10, fields, classic.dataA)
	nameB, _ := env.capture(t, "runB", 10, fields, classic.dataB)
	env.store.EvictAll()

	want := groundTruth(t, classic, 1e-5)
	rm, err := CompareMerkle(context.Background(), classic.store, classic.nameA, classic.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := CompareDiff(context.Background(), env.store, env.cs, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDiffs(t, want, diffsToMap(rd.Diffs), "diff-vs-truth")
	assertSameDiffs(t, diffsToMap(rm.Diffs), diffsToMap(rd.Diffs), "diff-vs-merkle")
	if rd.Method != "merkle-cas" {
		t.Errorf("Method = %q", rd.Method)
	}
	if rd.CandidateChunks != rm.CandidateChunks {
		t.Errorf("CandidateChunks = %d, classic found %d", rd.CandidateChunks, rm.CandidateChunks)
	}
	if rd.ChangedChunks != rm.ChangedChunks {
		t.Errorf("ChangedChunks = %d, classic found %d", rd.ChangedChunks, rm.ChangedChunks)
	}
	if rd.CASPrunedChunks != 0 {
		t.Errorf("CASPrunedChunks = %d without a memo, want 0", rd.CASPrunedChunks)
	}
	if rm.CASPrunedChunks != 0 {
		t.Errorf("classic comparison reported %d CAS-pruned chunks", rm.CASPrunedChunks)
	}
	if rd.TotalElements != rm.TotalElements || rd.TotalChunks != rm.TotalChunks {
		t.Errorf("totals diverge: diff %d/%d, classic %d/%d",
			rd.TotalElements, rd.TotalChunks, rm.TotalElements, rm.TotalChunks)
	}
}

// TestCompareDiffMemoReplaySkipsReads: a memo warmed by one comparison
// prunes every candidate of an identical re-comparison — zero stage-2
// read ops, identical diffs.
func TestCompareDiffMemoReplaySkipsReads(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	classic := newEnv(t, 64<<10, opts, synth.DefaultPerturb(8))
	env := newDiffEnv(t, opts)
	fields := classic.meta.Fields
	nameA, _ := env.capture(t, "runA", 10, fields, classic.dataA)
	nameB, _ := env.capture(t, "runB", 10, fields, classic.dataB)

	memo := NewCASMemo(1e-5)
	opts.Memo = memo

	env.store.EvictAll()
	ops0, _ := env.store.ReadStats()
	r1, err := CompareDiff(context.Background(), env.store, env.cs, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops1, _ := env.store.ReadStats()
	if r1.CASPrunedChunks != 0 {
		t.Errorf("cold memo pruned %d chunks", r1.CASPrunedChunks)
	}
	if memo.Len() != r1.CandidateChunks || r1.CandidateChunks == 0 {
		t.Fatalf("memo holds %d verdicts after verifying %d candidates", memo.Len(), r1.CandidateChunks)
	}

	env.store.EvictAll()
	r2, err := CompareDiff(context.Background(), env.store, env.cs, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops2, _ := env.store.ReadStats()
	if r2.CASPrunedChunks != r2.CandidateChunks || r2.CandidateChunks == 0 {
		t.Errorf("memoized pass pruned %d of %d candidates, want all", r2.CASPrunedChunks, r2.CandidateChunks)
	}
	if warmOps, coldOps := ops2-ops1, ops1-ops0; warmOps >= coldOps {
		t.Errorf("memoized pass took %d read ops, cold pass took %d — pruning saved nothing", warmOps, coldOps)
	}
	assertSameDiffs(t, diffsToMap(r1.Diffs), diffsToMap(r2.Diffs), "memo-replay")
	if r2.DiffCount != r1.DiffCount || r2.ChangedChunks != r1.ChangedChunks {
		t.Errorf("replayed verdicts diverge: %d/%d diffs, %d/%d changed chunks",
			r2.DiffCount, r1.DiffCount, r2.ChangedChunks, r1.ChangedChunks)
	}
	if r2.Degraded || r2.UnverifiedChunks != 0 {
		t.Error("clean memoized pass must not be degraded")
	}
}

// TestCompareDiffPrunedNeverUnverified: a pruned chunk's verdict is
// proven, so even when every pack read fails, a fully memoized comparison
// completes clean — and the same failure without the memo degrades every
// candidate to Unverified, never silently matching.
func TestCompareDiffPrunedNeverUnverified(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	classic := newEnv(t, 64<<10, opts, synth.DefaultPerturb(9))
	env := newDiffEnv(t, opts)
	fields := classic.meta.Fields
	nameA, _ := env.capture(t, "runA", 10, fields, classic.dataA)
	nameB, _ := env.capture(t, "runB", 10, fields, classic.dataB)

	memo := NewCASMemo(1e-5)
	opts.Memo = memo
	r1, err := CompareDiff(context.Background(), env.store, env.cs, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Every stage-2 pack read now fails. The memoized re-comparison never
	// schedules one.
	opts.Backend = nameFailBackend{inner: aio.Mmap{}, match: cas.PackName, err: errStorage}
	opts.Degrade = true
	env.store.EvictAll()
	r2, err := CompareDiff(context.Background(), env.store, env.cs, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if r2.CASPrunedChunks != r2.CandidateChunks {
		t.Fatalf("pruned %d of %d candidates, want all", r2.CASPrunedChunks, r2.CandidateChunks)
	}
	if r2.Degraded || r2.UnverifiedChunks != 0 {
		t.Errorf("pruned chunks reported unverified: Degraded=%v Unverified=%d",
			r2.Degraded, r2.UnverifiedChunks)
	}
	assertSameDiffs(t, diffsToMap(r1.Diffs), diffsToMap(r2.Diffs), "pruned-under-faults")

	// Control: the same failure without the memo degrades every candidate.
	opts.Memo = nil
	env.store.EvictAll()
	r3, err := CompareDiff(context.Background(), env.store, env.cs, nameA, nameB, opts)
	if err != nil {
		t.Fatalf("degrade mode must absorb the pack failure: %v", err)
	}
	if !r3.Degraded || r3.UnverifiedChunks != r3.CandidateChunks || r3.CandidateChunks == 0 {
		t.Errorf("unmemoized control: Degraded=%v Unverified=%d Candidates=%d, want all candidates unverified",
			r3.Degraded, r3.UnverifiedChunks, r3.CandidateChunks)
	}
	if r3.Identical() {
		t.Error("degraded result must never be a clean match")
	}
}

// TestCompareDiffMemoEpsilonMismatch: a memo carries verdicts only at its
// pinned ε; any other comparison must refuse it.
// TestPruneKeysOnFullDigests holds the CAS prune pass to full-digest keying
// (DESIGN §13): a candidate chunk is proven without reading only by extent
// equality or by a memoized verdict for exactly its digest pair. The
// neighbours here differ from a provable pair in one byte of a digest — the
// last, the first, on either side — so a prune decision or a memo key that
// looks at any prefix, suffix or half of a digest removes a chunk this table
// says must reach stage 2.
func TestPruneKeysOnFullDigests(t *testing.T) {
	dA := murmur3.Digest{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	dB := murmur3.Digest{21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36}
	flip := func(d murmur3.Digest, i int) murmur3.Digest { d[i] ^= 0x80; return d }
	memo := NewCASMemo(1e-5)
	memo.insert(dA, dB, errbound.Float32, []int64{7})

	rows := []struct {
		name       string
		a, b       murmur3.Digest
		locA, locB cas.Loc
		pruned     bool
	}{
		{"same extent", dA, dA, cas.Loc{Off: 0, Len: 64}, cas.Loc{Off: 0, Len: 64}, true},
		{"memoized pair", dA, dB, cas.Loc{Off: 64, Len: 64}, cas.Loc{Off: 128, Len: 64}, true},
		{"A differs in its last byte", flip(dA, 15), dB, cas.Loc{Off: 192, Len: 64}, cas.Loc{Off: 128, Len: 64}, false},
		{"A differs in its first byte", flip(dA, 0), dB, cas.Loc{Off: 256, Len: 64}, cas.Loc{Off: 128, Len: 64}, false},
		{"B differs in its last byte", dA, flip(dB, 15), cas.Loc{Off: 64, Len: 64}, cas.Loc{Off: 320, Len: 64}, false},
		{"B differs in its first byte", dA, flip(dB, 0), cas.Loc{Off: 64, Len: 64}, cas.Loc{Off: 384, Len: 64}, false},
		{"sides share all but the last byte", dA, flip(dA, 15), cas.Loc{Off: 64, Len: 64}, cas.Loc{Off: 448, Len: 64}, false},
		{"sides share all but the first byte", dA, flip(dA, 0), cas.Loc{Off: 64, Len: 64}, cas.Loc{Off: 512, Len: 64}, false},
		{"memoized pair, sides swapped", dB, dA, cas.Loc{Off: 128, Len: 64}, cas.Loc{Off: 64, Len: 64}, false},
	}
	manA := &cas.Manifest{Epsilon: 1e-5, ChunkSize: 64, Fields: []cas.FieldManifest{{Name: "x", DType: errbound.Float32}}}
	manB := &cas.Manifest{Epsilon: 1e-5, ChunkSize: 64, Fields: []cas.FieldManifest{{Name: "x", DType: errbound.Float32}}}
	var cands, want []int
	for ci, r := range rows {
		manA.Fields[0].Digests, manA.Fields[0].Locs = append(manA.Fields[0].Digests, r.a), append(manA.Fields[0].Locs, r.locA)
		manB.Fields[0].Digests, manB.Fields[0].Locs = append(manB.Fields[0].Digests, r.b), append(manB.Fields[0].Locs, r.locB)
		cands = append(cands, ci)
		if !r.pruned {
			want = append(want, ci)
		}
	}
	res := &Result{}
	ms := &MemberSet{
		opts:    Options{Memo: memo},
		Pairs:   [][2]int{{0, 1}},
		mans:    []*cas.Manifest{manA, manB},
		Cands:   [][][]int{{cands}},
		results: []*Result{res},
		folds:   newFolds(1, 1),
	}
	if err := ms.prune(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if got := ms.Cands[0][0]; !slices.Equal(got, want) {
		for _, ci := range want {
			if !slices.Contains(got, ci) {
				t.Errorf("chunk %d (%s) was pruned", ci, rows[ci].name)
			}
		}
		t.Fatalf("chunks left for stage 2 = %v, want %v", got, want)
	}
	if res.CASPrunedChunks != 2 {
		t.Errorf("CASPrunedChunks = %d, want 2", res.CASPrunedChunks)
	}
	// Only the memoized pair replays: element 7 of chunk 1, 16 float32s a
	// chunk.
	if got := ms.folds[0].idx[0]; !slices.Equal(got, []int64{1*16 + 7}) || ms.folds[0].Changed != 1 {
		t.Errorf("replayed indices = %v (Changed %d), want [23] (1)", got, ms.folds[0].Changed)
	}
}

func TestCompareDiffMemoEpsilonMismatch(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newDiffEnv(t, opts)
	fields := f32Fields([]string{"x"}, 4<<10)
	data := [][]byte{synth.FieldF32(4<<10, 3)}
	nameA, _ := env.capture(t, "runA", 1, fields, data)
	nameB, _ := env.capture(t, "runB", 1, fields, data)
	opts.Memo = NewCASMemo(1e-3)
	if _, err := CompareDiff(context.Background(), env.store, env.cs, nameA, nameB, opts); err == nil {
		t.Error("ε-mismatched memo accepted")
	}
}
