package compare

import (
	"context"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// compactEnv builds a 3-iteration history for two runs with metadata.
func compactEnv(t *testing.T, opts Options) (*pfs.Store, []int) {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const elems = 16 << 10
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: elems}}
	iters := []int{10, 20, 30}
	for _, run := range []string{"cA", "cB"} {
		for _, it := range iters {
			data := synth.FieldF32(elems, int64(it))
			if run == "cB" {
				pert := synth.DefaultPerturb(int64(it))
				pert.BlockElems = 512
				pert.ChangedFrac = 0.05
				data = synth.PerturbF32(data, pert)
			}
			meta := ckpt.Meta{RunID: run, Iteration: it, Rank: 0, Fields: fields}
			if _, err := ckpt.WriteCheckpoint(store, meta, [][]byte{data}); err != nil {
				t.Fatal(err)
			}
			if _, _, err := BuildAndSave(context.Background(), store, ckpt.Name(run, it, 0), opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	return store, iters
}

func TestCompactHistoryKeepsLatest(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	store, iters := compactEnv(t, opts)
	report, err := CompactHistory(context.Background(), store, "cA", 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Removed) != 2 {
		t.Fatalf("removed %v", report.Removed)
	}
	if report.BytesFreed <= 0 {
		t.Error("no bytes freed")
	}
	if len(report.MetadataBuilt) != 0 {
		t.Errorf("metadata rebuilt for %v despite existing", report.MetadataBuilt)
	}
	// Old iterations are metadata-only; the latest keeps its data.
	for _, it := range iters[:2] {
		if !compacted(t, store, ckpt.Name("cA", it, 0)) {
			t.Errorf("iteration %d not compacted", it)
		}
	}
	if compacted(t, store, ckpt.Name("cA", 30, 0)) {
		t.Error("latest iteration compacted")
	}
	// Data-level history shrinks; metadata history is intact.
	dh, err := ckpt.History(store, "cA")
	if err != nil {
		t.Fatal(err)
	}
	if len(dh) != 1 {
		t.Errorf("data history = %v", dh)
	}
	mh, err := MetadataHistory(store, "cA")
	if err != nil {
		t.Fatal(err)
	}
	if len(mh) != 3 {
		t.Errorf("metadata history = %v", mh)
	}
}

func TestCompactedStillComparableAtTreeLevel(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	store, _ := compactEnv(t, opts)
	// Establish ground truth while data exists.
	full, err := CompareMerkle(context.Background(), store, ckpt.Name("cA", 10, 0), ckpt.Name("cB", 10, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []string{"cA", "cB"} {
		if _, err := CompactHistory(context.Background(), store, run, 1, opts); err != nil {
			t.Fatal(err)
		}
	}
	// Data-level comparison now fails for compacted iterations...
	if _, err := CompareMerkle(context.Background(), store, ckpt.Name("cA", 10, 0), ckpt.Name("cB", 10, 0), opts); err == nil {
		t.Error("data-level compare succeeded on compacted checkpoints")
	}
	// ...but the tree-level comparison still answers the question.
	res, err := CompareTreesOnly(context.Background(), store, ckpt.Name("cA", 10, 0), ckpt.Name("cB", 10, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.CandidateChunks != full.CandidateChunks {
		t.Errorf("tree-only candidates %d, full run had %d", res.CandidateChunks, full.CandidateChunks)
	}
	if full.DiffCount > 0 && res.DiffCount != -1 {
		t.Errorf("DiffCount = %d, want -1 (unknown) for divergent compacted pair", res.DiffCount)
	}
	if res.Method != "merkle-meta" {
		t.Errorf("Method = %q", res.Method)
	}
	if res.CheckpointBytes != full.CheckpointBytes {
		t.Errorf("CheckpointBytes = %d, want %d", res.CheckpointBytes, full.CheckpointBytes)
	}
}

func TestCompactTreesOnlyIdentical(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: 4096}}
	data := synth.FieldF32(4096, 9)
	for _, run := range []string{"idA", "idB"} {
		meta := ckpt.Meta{RunID: run, Iteration: 0, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, [][]byte{data}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := BuildAndSave(context.Background(), store, ckpt.Name(run, 0, 0), opts); err != nil {
			t.Fatal(err)
		}
		if _, _, err := CompactCheckpoint(context.Background(), store, ckpt.Name(run, 0, 0), opts); err != nil {
			t.Fatal(err)
		}
	}
	res, err := CompareTreesOnly(context.Background(), store, ckpt.Name("idA", 0, 0), ckpt.Name("idB", 0, 0), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffCount != 0 || res.CandidateChunks != 0 {
		t.Errorf("identical compacted pair: diffs=%d candidates=%d", res.DiffCount, res.CandidateChunks)
	}
	if !res.Identical() {
		t.Error("Identical() = false")
	}
}

func TestCompactCheckpointBuildsMissingMetadata(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: 1024}}
	meta := ckpt.Meta{RunID: "nb", Iteration: 0, Rank: 0, Fields: fields}
	if _, err := ckpt.WriteCheckpoint(store, meta, [][]byte{synth.FieldF32(1024, 1)}); err != nil {
		t.Fatal(err)
	}
	name := ckpt.Name("nb", 0, 0)
	built, freed, err := CompactCheckpoint(context.Background(), store, name, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !built {
		t.Error("metadata not built")
	}
	if freed <= 0 {
		t.Error("nothing freed")
	}
	if !compacted(t, store, name) {
		t.Error("not compacted")
	}
	// Compacting again fails (no data file).
	if _, _, err := CompactCheckpoint(context.Background(), store, name, opts); err == nil {
		t.Error("double compaction succeeded")
	}
}

func TestCompactHistoryValidation(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompactHistory(context.Background(), store, "ghost", 1, opts); err == nil {
		t.Error("empty run accepted")
	}
	// keepLatest covering everything is a no-op.
	store2, _ := compactEnv(t, opts)
	report, err := CompactHistory(context.Background(), store2, "cA", 99, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Removed) != 0 {
		t.Errorf("keepLatest=99 removed %v", report.Removed)
	}
	// Negative keepLatest clamps to 0 (compact everything).
	report, err = CompactHistory(context.Background(), store2, "cA", -1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Removed) != 3 {
		t.Errorf("keepLatest=-1 removed %v", report.Removed)
	}
}

// compacted is IsCompacted for a store every file of which opens.
func compacted(t *testing.T, store *pfs.Store, name string) bool {
	t.Helper()
	ok, err := IsCompacted(store, name)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestIsCompactedStates(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	if compacted(t, store, "never/existed.ckpt") {
		t.Error("missing checkpoint reported compacted")
	}
}

func TestCompareTreesOnlyEpsilonMismatch(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	store, _ := compactEnv(t, opts)
	other := opts
	other.Epsilon = 1e-3
	_, err := CompareTreesOnly(context.Background(), store, ckpt.Name("cA", 10, 0), ckpt.Name("cB", 10, 0), other)
	if err == nil {
		t.Error("epsilon mismatch accepted")
	}
	var zero Options
	if _, err := CompareTreesOnly(context.Background(), store, "x", "y", zero); err == nil {
		t.Error("zero options accepted")
	}
}
