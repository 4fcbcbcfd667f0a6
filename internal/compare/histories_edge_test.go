package compare

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// historyEnv writes two runs with the given iterations (run B perturbed
// from run A at every iteration) plus Merkle metadata for everything.
func historyEnv(t *testing.T, iters []int, opts Options, pert synth.PerturbConfig) *pfs.Store {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const elems = 4 << 10
	dataA, dataB := synth.RunPair(elems, 2, 99, pert)
	fields := []ckpt.FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: elems},
		{Name: "v", DType: errbound.Float32, Count: elems},
	}
	for _, it := range iters {
		for _, rd := range []struct {
			run  string
			data [][]byte
		}{{"runA", dataA}, {"runB", dataB}} {
			meta := ckpt.Meta{RunID: rd.run, Iteration: it, Rank: 0, Fields: fields}
			if _, err := ckpt.WriteCheckpoint(store, meta, rd.data); err != nil {
				t.Fatal(err)
			}
			name := ckpt.Name(rd.run, it, 0)
			if _, _, err := BuildAndSave(context.Background(), store, name, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	store.EvictAll()
	return store
}

// TestHistoriesLengthMismatchPartialRanks covers the length-mismatch
// error when the runs diverge in rank count, not just iteration count.
func TestHistoriesLengthMismatchPartialRanks(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: 64}}
	write := func(run string, iter, rank int) {
		meta := ckpt.Meta{RunID: run, Iteration: iter, Rank: rank, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, [][]byte{make([]byte, 256)}); err != nil {
			t.Fatal(err)
		}
	}
	write("r1", 10, 0)
	write("r1", 10, 1)
	write("r2", 10, 0)
	rep, err := CompareHistories(context.Background(), store, "r1", "r2", MethodDirect, Options{Epsilon: 1e-6})
	if err == nil {
		t.Fatal("rank-count mismatch accepted")
	}
	if rep != nil {
		t.Fatalf("got a report alongside an upfront validation error: %+v", rep)
	}
}

// TestHistoriesCompactedCheckpointMidHistory compacts one checkpoint in
// the middle of run A's history and asserts CompareHistories degrades
// that pair to the metadata-only comparison instead of failing.
func TestHistoriesCompactedCheckpointMidHistory(t *testing.T) {
	opts := baseOpts(1e-6, 4<<10)
	pert := synth.PerturbConfig{} // identical runs
	store := historyEnv(t, []int{10, 20, 30}, opts, pert)

	midName := ckpt.Name("runA", 20, 0)
	if _, _, err := CompactCheckpoint(context.Background(), store, midName, opts); err != nil {
		t.Fatal(err)
	}
	if !compacted(t, store, midName) {
		t.Fatal("checkpoint not compacted")
	}

	rep, err := CompareHistories(context.Background(), store, "runA", "runB", MethodMerkle, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pairs) != 3 {
		t.Fatalf("compared %d pairs, want 3", len(rep.Pairs))
	}
	for i, p := range rep.Pairs {
		wantMetaOnly := i == 1
		if p.MetadataOnly != wantMetaOnly {
			t.Errorf("pair %d (iter %d): MetadataOnly = %v, want %v", i, p.Iteration, p.MetadataOnly, wantMetaOnly)
		}
		if p.Result == nil {
			t.Fatalf("pair %d missing result", i)
		}
	}
	if !rep.Reproducible() {
		t.Error("identical histories with one compacted checkpoint not reproducible")
	}
	// The metadata-only pair reads its (tiny) metadata files, never the
	// checkpoint data.
	mid := rep.Pairs[1].Result
	if mid.BytesRead >= mid.CheckpointBytes {
		t.Errorf("metadata-only pair read %d bytes, not less than %d checkpoint bytes",
			mid.BytesRead, mid.CheckpointBytes)
	}
}

// TestHistoriesUnopenableDataIsNotCompacted replaces one checkpoint's data
// file with a symlink to itself — it is there, and no open can succeed
// (ELOOP; unlike a chmod this holds for root too). Its metadata is intact,
// so reading "cannot open" as "compacted" would answer the pair from trees
// alone. The error must come out of the pair step, and no pair may be
// reported metadata-only.
func TestHistoriesUnopenableDataIsNotCompacted(t *testing.T) {
	opts := baseOpts(1e-6, 4<<10)
	store := historyEnv(t, []int{10, 20, 30}, opts, synth.PerturbConfig{})

	midName := ckpt.Name("runA", 20, 0)
	path := filepath.Join(store.Root(), filepath.FromSlash(midName))
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Base(path), path); err != nil {
		t.Skipf("symlinks unavailable: %v", err)
	}
	if ok, err := IsCompacted(store, midName); err == nil || ok || errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("IsCompacted = %v, %v; want false and the open error", ok, err)
	}

	rep, err := CompareHistories(context.Background(), store, "runA", "runB", MethodMerkle, opts)
	if err == nil {
		t.Fatal("history with an unopenable data file compared without error")
	}
	if !strings.Contains(err.Error(), "iter=20") {
		t.Errorf("err = %v, want it to name the pair", err)
	}
	for _, p := range rep.Pairs {
		if p.MetadataOnly {
			t.Errorf("pair iter=%d answered from metadata alone", p.Iteration)
		}
	}
}

// TestHistoriesCancellationPartialReport cancels a history comparison
// partway through and asserts ctx.Err() propagation with a partial
// report of the pairs that finished.
func TestHistoriesCancellationPartialReport(t *testing.T) {
	opts := baseOpts(1e-7, 4<<10)
	pert := synth.DefaultPerturb(5)
	pert.MagLo, pert.MagHi = 1e-3, 1e-2 // beyond eps: stage 2 streams
	store := historyEnv(t, []int{10, 20, 30}, opts, pert)

	calls := errCallsOf(t, func(ctx context.Context) error {
		store.EvictAll()
		_, err := CompareHistories(ctx, store, "runA", "runB", MethodMerkle, opts)
		return err
	})

	// Cancel inside the last pair's sub-plan: the two finished pairs
	// must survive in the partial report.
	store.EvictAll()
	cc := &countingCtx{Context: context.Background(), budget: calls - 2}
	rep, err := CompareHistories(cc, store, "runA", "runB", MethodMerkle, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("no partial report on mid-history cancellation")
	}
	if len(rep.Pairs) != 2 {
		t.Fatalf("partial report has %d pairs, want 2", len(rep.Pairs))
	}
	for i, want := range []int{10, 20} {
		if rep.Pairs[i].Iteration != want {
			t.Errorf("pair %d iteration = %d, want %d", i, rep.Pairs[i].Iteration, want)
		}
	}
	if n := store.OpenHandles(); n != 0 {
		t.Fatalf("%d reader handles leaked after canceled history comparison", n)
	}

	// Canceled before any pair: empty-but-valid report, bare ctx error.
	cc = &countingCtx{Context: context.Background(), budget: 0}
	rep, err = CompareHistories(cc, store, "runA", "runB", MethodMerkle, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep == nil || len(rep.Pairs) != 0 {
		t.Fatalf("want empty partial report, got %+v", rep)
	}
}
