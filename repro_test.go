package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/synth"
)

// TestPublicAPIEndToEnd drives the whole public surface the way a
// downstream user would: capture two runs' checkpoints, build metadata,
// compare pairwise and across histories, and check the baselines agree.
func TestPublicAPIEndToEnd(t *testing.T) {
	store, err := repro.NewStore(t.TempDir(), repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.Options{Epsilon: 1e-5, ChunkSize: 8 << 10}

	const elems = 32 << 10
	fields := []repro.FieldSpec{
		{Name: "x", DType: repro.Float32, Count: elems},
		{Name: "v", DType: repro.Float32, Count: elems},
	}
	// Three iterations; divergence appears from iteration 20 on.
	for _, iter := range []int{10, 20, 30} {
		dataA := [][]byte{synth.FieldF32(elems, int64(iter)), synth.FieldF32(elems, int64(iter)+1000)}
		var dataB [][]byte
		if iter == 10 {
			dataB = [][]byte{append([]byte(nil), dataA[0]...), append([]byte(nil), dataA[1]...)}
		} else {
			pert := synth.DefaultPerturb(int64(iter))
			pert.MagLo, pert.MagHi = 1e-4, 1e-2 // all perturbations above ε
			pert.UntouchedFrac = 0.5
			pert.BlockElems = 1024
			dataB = [][]byte{synth.PerturbF32(dataA[0], pert), synth.PerturbF32(dataA[1], pert)}
		}
		for _, rd := range []struct {
			run  string
			data [][]byte
		}{{"runA", dataA}, {"runB", dataB}} {
			meta := repro.Checkpoint{RunID: rd.run, Iteration: iter, Rank: 0, Fields: fields}
			if _, err := repro.WriteCheckpoint(store, meta, rd.data); err != nil {
				t.Fatal(err)
			}
			name := repro.CheckpointName(rd.run, iter, 0)
			if _, _, err := repro.BuildAndSave(context.Background(), store, name, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	store.EvictAll()

	// History listing.
	hist, err := repro.History(store, "runA")
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 3 {
		t.Fatalf("history has %d checkpoints", len(hist))
	}

	// Pairwise comparison at the first iteration: identical.
	nameA := repro.CheckpointName("runA", 10, 0)
	nameB := repro.CheckpointName("runB", 10, 0)
	res, err := repro.Compare(context.Background(), store, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Identical() {
		t.Error("iteration 10 should be identical")
	}
	ok, err := repro.AllClose(context.Background(), store, nameA, nameB, opts)
	if err != nil || !ok {
		t.Errorf("AllClose(iter 10) = %v, %v", ok, err)
	}

	// Divergent iteration: merkle and direct must agree.
	nameA = repro.CheckpointName("runA", 20, 0)
	nameB = repro.CheckpointName("runB", 20, 0)
	rm, err := repro.Compare(context.Background(), store, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := repro.CompareDirect(context.Background(), store, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rm.DiffCount == 0 {
		t.Error("iteration 20 should diverge")
	}
	if rm.DiffCount != rd.DiffCount {
		t.Errorf("merkle %d diffs, direct %d", rm.DiffCount, rd.DiffCount)
	}
	ok, err = repro.AllClose(context.Background(), store, nameA, nameB, opts)
	if err != nil || ok {
		t.Errorf("AllClose(iter 20) = %v, %v; want false", ok, err)
	}

	// Whole-history comparison pinpoints the first divergence.
	report, err := repro.CompareHistories(context.Background(), store, "runA", "runB", repro.MethodMerkle, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Reproducible() {
		t.Fatal("histories should not be reproducible")
	}
	if report.FirstDivergence.Iteration != 20 {
		t.Errorf("first divergence at iteration %d, want 20", report.FirstDivergence.Iteration)
	}
	if len(report.Pairs) != 3 {
		t.Errorf("report has %d pairs", len(report.Pairs))
	}
	if report.TotalDiffs() == 0 {
		t.Error("TotalDiffs = 0")
	}

	// Metadata round trip through the store.
	m, err := repro.LoadMetadata(context.Background(), store, nameA)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fields) != 2 {
		t.Errorf("metadata has %d fields", len(m.Fields))
	}
	if repro.MetadataName("x.ckpt") != "x.ckpt.mrkl" {
		t.Errorf("MetadataName = %q", repro.MetadataName("x.ckpt"))
	}

	// Reader surface.
	r, err := repro.OpenCheckpoint(store, nameA)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.NumFields() != 2 || r.Meta().Iteration != 20 {
		t.Error("reader metadata wrong")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if repro.LustreModel().Name != "lustre" || repro.NVMeModel().Name != "nvme" {
		t.Error("storage model names wrong")
	}
	if repro.GPUModel().Name != "GPU" || repro.CPUModel().Name != "CPU" {
		t.Error("device model names wrong")
	}
	if repro.SerialExecutor().Workers() != 1 {
		t.Error("serial executor workers wrong")
	}
	if repro.NewUringBackend(8).Name() != "io_uring" {
		t.Error("uring backend name wrong")
	}
	if repro.MmapBackend().Name() != "mmap" {
		t.Error("mmap backend name wrong")
	}
	if repro.MethodMerkle.String() != "merkle" {
		t.Error("method alias broken")
	}
}

func TestCheckpointerFacade(t *testing.T) {
	local, err := repro.NewStore(t.TempDir(), repro.NVMeModel())
	if err != nil {
		t.Fatal(err)
	}
	remote, err := repro.NewStore(t.TempDir(), repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	c := repro.NewCheckpointer(local, remote, 1)
	meta := repro.Checkpoint{
		RunID: "facade", Iteration: 0, Rank: 0,
		Fields: []repro.FieldSpec{{Name: "x", DType: repro.Float32, Count: 100}},
	}
	if err := c.Capture(meta, [][]byte{make([]byte, 400)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := repro.OpenCheckpoint(remote, repro.CheckpointName("facade", 0, 0)); err != nil {
		t.Errorf("flushed checkpoint unreadable: %v", err)
	}
}

// TestDifferentialFacade drives the differential-capture surface through
// the public aliases: open a CAS, capture two runs across iterations,
// compare with CompareDiff, and replay through a warmed memo.
func TestDifferentialFacade(t *testing.T) {
	store, err := repro.NewStore(t.TempDir(), repro.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	cs, err := repro.OpenCAS(context.Background(), store)
	if err != nil {
		t.Fatal(err)
	}
	opts := repro.Options{Epsilon: 1e-5, ChunkSize: 4 << 10, Memo: repro.NewCASMemo(1e-5)}
	const elems = 16 << 10
	fields := []repro.FieldSpec{{Name: "x", DType: repro.Float32, Count: elems}}
	pert := synth.DefaultPerturb(7)
	pert.MagLo, pert.MagHi = 1e-3, 1e-2
	base, diverged := synth.RunPair(elems, 1, 11, pert)
	for _, rd := range []struct {
		run  string
		data [][]byte
	}{{"runA", base}, {"runB", diverged}} {
		capt, err := repro.NewDiffCapturer(store, cs, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, iter := range []int{10, 20} {
			meta := repro.Checkpoint{RunID: rd.run, Iteration: iter, Rank: 0, Fields: fields}
			rep, err := capt.Capture(context.Background(), meta, rd.data)
			if err != nil {
				t.Fatal(err)
			}
			if iter == 20 && rep.Stats.DedupHits != rep.Stats.Chunks {
				t.Fatalf("identical iteration wrote chunks: %+v", rep.Stats)
			}
		}
	}
	store.EvictAll()
	nameA := repro.CheckpointName("runA", 20, 0)
	nameB := repro.CheckpointName("runB", 20, 0)
	res, err := repro.CompareDiff(context.Background(), store, cs, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffCount == 0 || res.Identical() {
		t.Fatalf("perturbed pair compared clean: %+v", res)
	}
	// Second comparison replays the memo: every candidate pruned.
	res2, err := repro.CompareDiff(context.Background(), store, cs, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CASPrunedChunks != res2.CandidateChunks || res2.DiffCount != res.DiffCount {
		t.Fatalf("memo replay diverged: pruned %d of %d, diffs %d vs %d",
			res2.CASPrunedChunks, res2.CandidateChunks, res2.DiffCount, res.DiffCount)
	}
	gr, err := repro.GroupCompareDiff(context.Background(), store, cs, nameA, []string{nameB}, repro.TopologyStar, opts)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Reproducible() {
		t.Fatal("divergent group reported reproducible")
	}
}
