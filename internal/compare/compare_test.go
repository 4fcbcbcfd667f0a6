package compare

import (
	"bytes"
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// testEnv writes two synthetic checkpoints (run B perturbed from run A)
// plus their metadata onto a store and returns everything needed to
// compare them.
type testEnv struct {
	store        *pfs.Store
	nameA, nameB string
	dataA, dataB [][]byte
	meta         ckpt.Meta
}

func newEnv(t *testing.T, elems int, opts Options, perturb synth.PerturbConfig) *testEnv {
	t.Helper()
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const nFields = 3
	dataA, dataB := synth.RunPair(elems, nFields, 42, perturb)
	fields := make([]ckpt.FieldSpec, nFields)
	for i, n := range []string{"x", "vx", "phi"} {
		fields[i] = ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: int64(elems)}
	}
	metaA := ckpt.Meta{RunID: "runA", Iteration: 10, Rank: 0, Fields: fields}
	metaB := ckpt.Meta{RunID: "runB", Iteration: 10, Rank: 0, Fields: fields}
	if _, err := ckpt.WriteCheckpoint(store, metaA, dataA); err != nil {
		t.Fatal(err)
	}
	if _, err := ckpt.WriteCheckpoint(store, metaB, dataB); err != nil {
		t.Fatal(err)
	}
	env := &testEnv{
		store: store,
		nameA: ckpt.Name("runA", 10, 0),
		nameB: ckpt.Name("runB", 10, 0),
		dataA: dataA,
		dataB: dataB,
		meta:  metaA,
	}
	// Build and save metadata for both (the checkpoint-time step).
	for _, nd := range []struct {
		name string
		data [][]byte
	}{{env.nameA, dataA}, {env.nameB, dataB}} {
		m, _, err := Build(fields, nd.data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SaveMetadata(store, nd.name, m); err != nil {
			t.Fatal(err)
		}
	}
	store.EvictAll() // every comparison starts cold, per the methodology
	return env
}

// testPool is the two-worker executor of baseOpts, shared by the
// package's tests and never closed, like device.Default.
var testPool = device.NewPool(2)

func baseOpts(eps float64, chunk int) Options {
	return Options{
		Epsilon:   eps,
		ChunkSize: chunk,
		Exec:      testPool,
	}
}

// groundTruth computes the expected diff indices per field directly.
func groundTruth(t *testing.T, env *testEnv, eps float64) map[string][]int64 {
	t.Helper()
	h, err := errbound.NewHasher(errbound.Float32, eps)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]int64)
	for fi, f := range env.meta.Fields {
		idx, _, err := h.CompareSlices(nil, env.dataA[fi], env.dataB[fi])
		if err != nil {
			t.Fatal(err)
		}
		if len(idx) > 0 {
			out[f.Name] = idx
		}
	}
	return out
}

func diffsToMap(diffs []FieldDiff) map[string][]int64 {
	out := make(map[string][]int64, len(diffs))
	for _, d := range diffs {
		out[d.Field] = d.Indices
	}
	return out
}

func assertSameDiffs(t *testing.T, want, got map[string][]int64, label string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d fields with diffs, want %d", label, len(got), len(want))
	}
	for f, w := range want {
		g, ok := got[f]
		if !ok {
			t.Fatalf("%s: field %s missing", label, f)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: field %s has %d diffs, want %d", label, f, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: field %s diff %d = %d, want %d", label, f, i, g[i], w[i])
			}
		}
	}
}

func TestMerkleMatchesGroundTruth(t *testing.T) {
	for _, eps := range []float64{1e-3, 1e-5, 1e-7} {
		for _, chunk := range []int{4 << 10, 64 << 10} {
			opts := baseOpts(eps, chunk)
			env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(7))
			want := groundTruth(t, env, eps)
			res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
			if err != nil {
				t.Fatalf("eps=%g chunk=%d: %v", eps, chunk, err)
			}
			assertSameDiffs(t, want, diffsToMap(res.Diffs), "merkle")
			if res.Method != "merkle" {
				t.Errorf("Method = %q", res.Method)
			}
			var wantCount int64
			for _, w := range want {
				wantCount += int64(len(w))
			}
			if res.DiffCount != wantCount {
				t.Errorf("DiffCount = %d, want %d", res.DiffCount, wantCount)
			}
		}
	}
}

func TestDirectMatchesGroundTruth(t *testing.T) {
	opts := baseOpts(1e-5, 16<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(8))
	want := groundTruth(t, env, 1e-5)
	res, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDiffs(t, want, diffsToMap(res.Diffs), "direct")
	if res.CandidateChunks != 0 || res.MetadataBytes != 0 {
		t.Error("direct method should not report hash-stage artifacts")
	}
}

func TestMerkleAgreesWithDirect(t *testing.T) {
	opts := baseOpts(1e-6, 8<<10)
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(9))
	rm, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	env.store.EvictAll()
	rd, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameDiffs(t, diffsToMap(rd.Diffs), diffsToMap(rm.Diffs), "merkle-vs-direct")
	if rm.DiffCount != rd.DiffCount {
		t.Errorf("merkle found %d, direct found %d", rm.DiffCount, rd.DiffCount)
	}
}

func TestAllCloseAgrees(t *testing.T) {
	opts := baseOpts(1e-5, 16<<10)
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(10))
	want := groundTruth(t, env, 1e-5)
	ok, res, err := CompareAllClose(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ok != (len(want) == 0) {
		t.Errorf("allclose = %v, ground truth has %d fields with diffs", ok, len(want))
	}
	if len(res.Diffs) != 0 {
		t.Error("allclose must not report locations")
	}
}

func TestAllCloseIdenticalRuns(t *testing.T) {
	opts := baseOpts(1e-7, 16<<10)
	pert := synth.DefaultPerturb(11)
	pert.UntouchedFrac = 1.0 // identical runs
	env := newEnv(t, 16<<10, opts, pert)
	ok, res, err := CompareAllClose(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("identical runs reported as differing")
	}
	if !res.Identical() {
		t.Error("Identical() = false for identical runs")
	}
}

func TestMerkleIdenticalRunsReadNoData(t *testing.T) {
	// The paper's ideal case: no changes -> only metadata is read.
	opts := baseOpts(1e-5, 8<<10)
	pert := synth.DefaultPerturb(12)
	pert.UntouchedFrac = 1.0
	env := newEnv(t, 64<<10, opts, pert)
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffCount != 0 || res.CandidateChunks != 0 {
		t.Errorf("identical runs: diffs=%d candidates=%d", res.DiffCount, res.CandidateChunks)
	}
	if res.BytesRead > 2*res.MetadataBytes+4096 {
		t.Errorf("identical runs read %d bytes, metadata is only %d", res.BytesRead, res.MetadataBytes)
	}
}

func TestConservativeNoFalseNegatives(t *testing.T) {
	// Every ground-truth divergent element must be inside a candidate
	// chunk: the error-bounded hash can have false positives, never false
	// negatives. Verified implicitly by diff equality, and explicitly by
	// chunk accounting here.
	opts := baseOpts(1e-4, 4<<10)
	env := newEnv(t, 128<<10, opts, synth.DefaultPerturb(13))
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChangedChunks > res.CandidateChunks {
		t.Errorf("changed chunks %d exceed candidates %d", res.ChangedChunks, res.CandidateChunks)
	}
	if res.FalsePositiveChunks() < 0 {
		t.Errorf("negative false positives: %d", res.FalsePositiveChunks())
	}
	if res.FalsePositiveRate() < 0 || res.FalsePositiveRate() > 1 {
		t.Errorf("FP rate out of range: %v", res.FalsePositiveRate())
	}
	want := groundTruth(t, env, 1e-4)
	assertSameDiffs(t, want, diffsToMap(res.Diffs), "conservative")
}

func TestMerkleReadsLessThanDirect(t *testing.T) {
	// The headline claim: with few changes, the Merkle method reads far
	// less data and is faster on the virtual clock.
	// Low change rate (the reproducibility-study regime the method is
	// built for): ~2% of blocks diverge above ε.
	opts := baseOpts(1e-3, 4<<10)
	opts.SetupVirtual = time.Millisecond // do not let fixed setup wash out the comparison
	pert := synth.DefaultPerturb(14)
	pert.UntouchedFrac = 0.98
	env := newEnv(t, 4<<20, opts, pert)
	rm, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	env.store.EvictAll()
	rd, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rm.BytesRead >= rd.BytesRead {
		t.Errorf("merkle read %d bytes, direct read %d", rm.BytesRead, rd.BytesRead)
	}
	if rm.VirtualElapsed() >= rd.VirtualElapsed() {
		t.Errorf("merkle virtual %v not faster than direct %v", rm.VirtualElapsed(), rd.VirtualElapsed())
	}
	if rm.ThroughputGBps() <= rd.ThroughputGBps() {
		t.Errorf("merkle throughput %.2f <= direct %.2f", rm.ThroughputGBps(), rd.ThroughputGBps())
	}
}

func TestBreakdownPhasesPopulated(t *testing.T) {
	opts := baseOpts(1e-5, 8<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(15))
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []metrics.Phase{metrics.PhaseSetup, metrics.PhaseRead, metrics.PhaseDeserialize, metrics.PhaseCompareTree} {
		if res.Breakdown.Get(p).Virtual <= 0 {
			t.Errorf("phase %v has no virtual time", p)
		}
	}
	if res.VirtualElapsed() <= 0 || res.WallElapsed() <= 0 {
		t.Error("elapsed times not accounted")
	}
}

func TestEpsilonMismatchRejected(t *testing.T) {
	opts := baseOpts(1e-5, 8<<10)
	env := newEnv(t, 16<<10, opts, synth.DefaultPerturb(16))
	other := opts
	other.Epsilon = 1e-3 // metadata was built at 1e-5
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, other); err == nil {
		t.Error("ε mismatch between metadata and options accepted")
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	opts := baseOpts(1e-5, 8<<10)
	env := newEnv(t, 16<<10, opts, synth.DefaultPerturb(17))
	// A third checkpoint with a different schema.
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: 100}}
	m := ckpt.Meta{RunID: "other", Iteration: 10, Rank: 0, Fields: fields}
	if _, err := ckpt.WriteCheckpoint(env.store, m, [][]byte{make([]byte, 400)}); err != nil {
		t.Fatal(err)
	}
	otherName := ckpt.Name("other", 10, 0)
	if _, err := CompareMerkle(context.Background(), env.store, env.nameA, otherName, opts); err == nil {
		t.Error("schema mismatch accepted by merkle")
	}
	if _, err := CompareDirect(context.Background(), env.store, env.nameA, otherName, opts); err == nil {
		t.Error("schema mismatch accepted by direct")
	}
	if _, _, err := CompareAllClose(context.Background(), env.store, env.nameA, otherName, opts); err == nil {
		t.Error("schema mismatch accepted by allclose")
	}
}

func TestOptionsValidation(t *testing.T) {
	env := newEnv(t, 1024, baseOpts(1e-5, 4096), synth.DefaultPerturb(18))
	for _, eps := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if _, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, Options{Epsilon: eps}); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
	}
	if _, _, err := Build(nil, [][]byte{{1}}, Options{Epsilon: 1e-5}); err == nil {
		t.Error("mismatched build inputs accepted")
	}
}

func TestMetadataRoundTrip(t *testing.T) {
	opts := baseOpts(1e-5, 8<<10)
	fields := []ckpt.FieldSpec{
		{Name: "x", DType: errbound.Float32, Count: 10000},
		{Name: "phi", DType: errbound.Float64, Count: 5000},
	}
	data := [][]byte{synth.FieldF32(10000, 1), make([]byte, 40000)}
	m, stats, err := Build(fields, data, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Bytes != 80000 {
		t.Errorf("hashed bytes = %d", stats.Bytes)
	}
	if stats.TotalVirtual() <= 0 {
		t.Error("build virtual time not accounted")
	}
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) || n != m.Bytes() {
		t.Errorf("WriteTo reported %d, buffer %d, Bytes() %d", n, buf.Len(), m.Bytes())
	}
	got, err := DecodeMetadata(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epsilon != m.Epsilon || len(got.Fields) != len(m.Fields) {
		t.Error("round trip lost container state")
	}
	for i := range m.Fields {
		if got.Fields[i].Name != m.Fields[i].Name || got.Fields[i].DType != m.Fields[i].DType {
			t.Errorf("field %d identity lost", i)
		}
		if got.Fields[i].Tree.Root() != m.Fields[i].Tree.Root() {
			t.Errorf("field %d tree root lost", i)
		}
	}

	// Decoded in place: per field one tree header and one name, plus the
	// container and its field slice — never a copy of the node bytes — and
	// no prefix of the container decodes.
	raw := buf.Bytes()
	if allocs := testing.AllocsPerRun(10, func() { _, _ = DecodeMetadata(raw) }); allocs > float64(2+2*len(m.Fields)) {
		t.Errorf("DecodeMetadata: %v allocations for %d fields", allocs, len(m.Fields))
	}
	for cut := 0; cut < len(raw); cut += 7 {
		if _, err := DecodeMetadata(raw[:cut]); err == nil {
			t.Fatalf("prefix of %d bytes accepted", cut)
		}
	}
}

func TestReadMetadataRejectsGarbage(t *testing.T) {
	if _, err := DecodeMetadata([]byte("not metadata at all...")); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := DecodeMetadata(nil); err == nil {
		t.Error("empty buffer accepted")
	}
}

func TestBuildAndSave(t *testing.T) {
	opts := baseOpts(1e-5, 8<<10)
	env := newEnv(t, 8<<10, opts, synth.DefaultPerturb(19))
	m, stats, err := BuildAndSave(context.Background(), env.store, env.nameA, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Fields) != 3 || stats.Bytes == 0 {
		t.Error("BuildAndSave returned incomplete results")
	}
	loaded, _, _, err := LoadMetadata(context.Background(), env.store, env.nameA)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Fields[0].Tree.Root() != m.Fields[0].Tree.Root() {
		t.Error("saved metadata does not round trip through the store")
	}
}

func TestFig8ShapeTreeBuildCPUvsGPU(t *testing.T) {
	// Tree construction priced on the GPU model must be orders of
	// magnitude below the CPU model, and flat in chunk size.
	// 16 MiB of data: large enough that kernel-launch latency no longer
	// hides the bandwidth gap (the full 4-orders gap appears at the
	// paper's 7 GB scale; see cmd/experiments -fig 8).
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: 1 << 22}}
	data := [][]byte{synth.FieldF32(1<<22, 3)}
	var prevGPU time.Duration
	for _, chunk := range []int{4 << 10, 32 << 10} {
		gpuOpts := Options{Epsilon: 1e-7, ChunkSize: chunk, Device: device.GPUModel(), Exec: testPool}
		cpuOpts := Options{Epsilon: 1e-7, ChunkSize: chunk, Device: device.CPUModel(), Exec: device.Serial{}}
		_, gs, err := Build(fields, data, gpuOpts)
		if err != nil {
			t.Fatal(err)
		}
		_, cs, err := Build(fields, data, cpuOpts)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(cs.TotalVirtual()) / float64(gs.TotalVirtual())
		if ratio < 100 {
			t.Errorf("chunk %d: CPU/GPU build ratio %.1f, want >> 100", chunk, ratio)
		}
		if prevGPU > 0 {
			rel := math.Abs(float64(gs.TotalVirtual()-prevGPU)) / float64(prevGPU)
			if rel > 0.5 {
				t.Errorf("GPU build time varies %.2f across chunk sizes, want flat", rel)
			}
		}
		prevGPU = gs.TotalVirtual()
	}
}
