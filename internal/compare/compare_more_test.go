package compare

import (
	"context"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// f64field builds a raw float64 buffer.
func f64field(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	b := make([]byte, 8*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(rng.NormFloat64()*10))
	}
	return b
}

// TestMixedDTypeCheckpoint compares a checkpoint mixing f32 and f64
// fields through all three methods.
func TestMixedDTypeCheckpoint(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	const n32, n64 = 8192, 4096
	fields := []ckpt.FieldSpec{
		{Name: "pos", DType: errbound.Float32, Count: n32},
		{Name: "energy", DType: errbound.Float64, Count: n64},
	}
	dataA := [][]byte{synth.FieldF32(n32, 1), f64field(n64, 2)}
	// Run B: perturb the f64 field beyond eps at three known indices.
	e := append([]byte(nil), dataA[1]...)
	for _, idx := range []int{10, 2000, 4095} {
		v := math.Float64frombits(binary.LittleEndian.Uint64(e[idx*8:]))
		binary.LittleEndian.PutUint64(e[idx*8:], math.Float64bits(v+1e-3))
	}
	dataB := [][]byte{append([]byte(nil), dataA[0]...), e}

	opts := Options{Epsilon: 1e-5, ChunkSize: 4 << 10, Exec: device.NewParallel(2)}
	for run, data := range map[string][][]byte{"mA": dataA, "mB": dataB} {
		meta := ckpt.Meta{RunID: run, Iteration: 0, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
			t.Fatal(err)
		}
		m, _, err := Build(fields, data, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SaveMetadata(store, ckpt.Name(run, 0, 0), m); err != nil {
			t.Fatal(err)
		}
	}
	store.EvictAll()

	nameA, nameB := ckpt.Name("mA", 0, 0), ckpt.Name("mB", 0, 0)
	rm, err := CompareMerkle(context.Background(), store, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := CompareDirect(context.Background(), store, nameA, nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{rm, rd} {
		if res.DiffCount != 3 {
			t.Errorf("%s: DiffCount = %d, want 3", res.Method, res.DiffCount)
		}
		if len(res.Diffs) != 1 || res.Diffs[0].Field != "energy" {
			t.Errorf("%s: diffs = %+v", res.Method, res.Diffs)
		}
		want := []int64{10, 2000, 4095}
		for i, w := range want {
			if res.Diffs[0].Indices[i] != w {
				t.Errorf("%s: index %d = %d, want %d", res.Method, i, res.Diffs[0].Indices[i], w)
			}
		}
	}
	ok, _, err := CompareAllClose(context.Background(), store, nameA, nameB, opts)
	if err != nil || ok {
		t.Errorf("allclose = %v, %v; want false", ok, err)
	}
}

// TestQuickMerkleEqualsDirect is the central correctness property as a
// randomized test: for random perturbation patterns, chunk sizes and
// bounds, the Merkle method and Direct report identical divergences.
func TestQuickMerkleEqualsDirect(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	iter := 0
	f := func(seed int64, chunkSel, epsSel uint8) bool {
		iter++
		chunk := []int{4 << 10, 16 << 10, 64 << 10}[int(chunkSel)%3]
		eps := []float64{1e-3, 1e-5, 1e-7}[int(epsSel)%3]
		const elems = 16 << 10
		pert := synth.DefaultPerturb(seed)
		pert.BlockElems = 512
		pert.ChangedFrac = 0.05
		dataA, dataB := synth.RunPair(elems, 2, seed, pert)
		fields := []ckpt.FieldSpec{
			{Name: "a", DType: errbound.Float32, Count: elems},
			{Name: "b", DType: errbound.Float32, Count: elems},
		}
		opts := Options{Epsilon: eps, ChunkSize: chunk, Exec: device.Serial{}}
		runA, runB := "qA", "qB"
		for run, data := range map[string][][]byte{runA: dataA, runB: dataB} {
			meta := ckpt.Meta{RunID: run, Iteration: iter, Rank: 0, Fields: fields}
			if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
				t.Log(err)
				return false
			}
			m, _, err := Build(fields, data, opts)
			if err != nil {
				t.Log(err)
				return false
			}
			if _, err := SaveMetadata(store, ckpt.Name(run, iter, 0), m); err != nil {
				t.Log(err)
				return false
			}
		}
		rm, err := CompareMerkle(context.Background(), store, ckpt.Name(runA, iter, 0), ckpt.Name(runB, iter, 0), opts)
		if err != nil {
			t.Log(err)
			return false
		}
		rd, err := CompareDirect(context.Background(), store, ckpt.Name(runA, iter, 0), ckpt.Name(runB, iter, 0), opts)
		if err != nil {
			t.Log(err)
			return false
		}
		if rm.DiffCount != rd.DiffCount || len(rm.Diffs) != len(rd.Diffs) {
			t.Logf("seed=%d chunk=%d eps=%g: merkle %d diffs, direct %d",
				seed, chunk, eps, rm.DiffCount, rd.DiffCount)
			return false
		}
		for i := range rm.Diffs {
			if rm.Diffs[i].Field != rd.Diffs[i].Field ||
				len(rm.Diffs[i].Indices) != len(rd.Diffs[i].Indices) {
				return false
			}
			for j := range rm.Diffs[i].Indices {
				if rm.Diffs[i].Indices[j] != rd.Diffs[i].Indices[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestMmapBackendComparison runs the Merkle compare with the mmap backend
// and checks it finds the same divergences as io_uring.
func TestMmapBackendComparison(t *testing.T) {
	opts := baseOpts(1e-5, 8<<10)
	env := newEnv(t, 64<<10, opts, synth.DefaultPerturb(77))
	uringRes, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	env.store.EvictAll()
	mopts := opts
	mopts.Backend = aio.Mmap{}
	mmapRes, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, mopts)
	if err != nil {
		t.Fatal(err)
	}
	if uringRes.DiffCount != mmapRes.DiffCount {
		t.Errorf("uring found %d diffs, mmap %d", uringRes.DiffCount, mmapRes.DiffCount)
	}
	// mmap must be priced slower for the same scattered work whenever
	// there was scattered work at all.
	if uringRes.CandidateChunks > 8 && mmapRes.VirtualElapsed() <= uringRes.VirtualElapsed() {
		t.Errorf("mmap virtual %v not above io_uring %v",
			mmapRes.VirtualElapsed(), uringRes.VirtualElapsed())
	}
}

// TestStartLevelEquivalence verifies every BFS start level yields the same
// comparison outcome end to end.
func TestStartLevelEquivalence(t *testing.T) {
	opts := baseOpts(1e-5, 4<<10)
	env := newEnv(t, 32<<10, opts, synth.DefaultPerturb(88))
	var ref *Result
	for _, level := range []int{-1, 1, 3, 20} {
		o := opts
		o.StartLevel = level
		env.store.EvictAll()
		res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, o)
		if err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.DiffCount != ref.DiffCount || res.CandidateChunks != ref.CandidateChunks {
			t.Errorf("level %d: diffs=%d candidates=%d, want %d/%d",
				level, res.DiffCount, res.CandidateChunks, ref.DiffCount, ref.CandidateChunks)
		}
	}
}

// TestMissingMetadataError ensures a clear failure when metadata was never
// built.
func TestMissingMetadataError(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: 128}}
	for _, run := range []string{"nmA", "nmB"} {
		meta := ckpt.Meta{RunID: run, Iteration: 0, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, [][]byte{make([]byte, 512)}); err != nil {
			t.Fatal(err)
		}
	}
	opts := Options{Epsilon: 1e-5}
	if _, err := CompareMerkle(context.Background(), store, ckpt.Name("nmA", 0, 0), ckpt.Name("nmB", 0, 0), opts); err == nil {
		t.Error("missing metadata accepted")
	}
}

// TestChunkLargerThanField exercises the degenerate single-chunk-per-field
// geometry.
func TestChunkLargerThanField(t *testing.T) {
	opts := baseOpts(1e-5, 1<<20) // 1 MiB chunks over 16 KiB fields
	env := newEnv(t, 4<<10, opts, synth.DefaultPerturb(99))
	res, err := CompareMerkle(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalChunks != 3 { // one chunk per field
		t.Errorf("TotalChunks = %d, want 3", res.TotalChunks)
	}
	rd, err := CompareDirect(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffCount != rd.DiffCount {
		t.Errorf("merkle %d diffs, direct %d", res.DiffCount, rd.DiffCount)
	}
}

// TestHistoriesValidation covers the history-level error paths.
func TestHistoriesValidation(t *testing.T) {
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Epsilon: 1e-5}
	if _, err := CompareHistories(context.Background(), store, "ghost1", "ghost2", MethodDirect, opts); err == nil {
		t.Error("empty histories accepted")
	}
	// Mismatched history lengths.
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: 64}}
	mk := func(run string, iters ...int) {
		for _, it := range iters {
			meta := ckpt.Meta{RunID: run, Iteration: it, Rank: 0, Fields: fields}
			if _, err := ckpt.WriteCheckpoint(store, meta, [][]byte{make([]byte, 256)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	mk("h1", 10, 20)
	mk("h2", 10)
	if _, err := CompareHistories(context.Background(), store, "h1", "h2", MethodDirect, opts); err == nil {
		t.Error("length mismatch accepted")
	}
	// Misaligned iterations.
	mk("h3", 10, 30)
	if _, err := CompareHistories(context.Background(), store, "h1", "h3", MethodDirect, opts); err == nil {
		t.Error("iteration misalignment accepted")
	}
	// Aligned, identical: reproducible.
	mk("h4", 10, 20)
	rep, err := CompareHistories(context.Background(), store, "h1", "h4", MethodDirect, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reproducible() || rep.TotalDiffs() != 0 {
		t.Error("identical histories not reproducible")
	}
}

// TestAllCloseViaMethodRun covers Method.Run's allclose path, whose
// DiffCount sentinel (-1) marks divergence without a count.
func TestAllCloseViaMethodRun(t *testing.T) {
	opts := baseOpts(1e-7, 8<<10)
	pert := synth.DefaultPerturb(111)
	pert.MagLo, pert.MagHi = 1e-3, 1e-2 // everything beyond eps
	pert.UntouchedFrac = 0
	pert.BlockElems = 256
	pert.ChangedFrac = 1
	env := newEnv(t, 8<<10, opts, pert)
	res, err := MethodAllClose.Run(context.Background(), env.store, env.nameA, env.nameB, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DiffCount != -1 {
		t.Errorf("DiffCount = %d, want -1 sentinel", res.DiffCount)
	}
	if res.Identical() {
		t.Error("Identical() true despite divergence")
	}
}

// TestMethodString pins the report names and that an unknown method
// neither prints empty nor runs.
func TestMethodString(t *testing.T) {
	if MethodMerkle.String() != "merkle" || MethodDirect.String() != "direct" || MethodAllClose.String() != "allclose" {
		t.Error("method names wrong")
	}
	if Method(42).String() == "" {
		t.Error("unknown method has empty name")
	}
	if _, err := Method(42).Run(context.Background(), nil, "", "", Options{Epsilon: 1}); err == nil {
		t.Error("unknown method ran")
	}
}

// TestResultZeroChunks guards the rate helpers against division by zero.
func TestResultZeroChunks(t *testing.T) {
	var r Result
	if r.MarkedFraction() != 0 || r.FalsePositiveRate() != 0 {
		t.Error("zero-chunk rates should be 0")
	}
	if r.ThroughputGBps() != 0 {
		t.Error("zero-duration throughput should be 0")
	}
}

// TestMetadataCompatVersioning ensures version/magic changes are caught.
func TestMetadataCompatVersioning(t *testing.T) {
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: 1024}}
	m, _, err := Build(fields, [][]byte{synth.FieldF32(1024, 1)}, Options{Epsilon: 1e-5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, flip := range []int{0, 4} { // magic, version
		c := append([]byte(nil), raw...)
		c[flip] ^= 0xff
		if _, err := DecodeMetadata(c); err == nil {
			t.Errorf("corruption at byte %d accepted", flip)
		}
	}
}

// TestParseTopology: ParseTopology inverts Topology.String, which is also
// the topology's JSON, "" is the star, and an unknown name is an error that
// names it.
func TestParseTopology(t *testing.T) {
	for _, want := range []Topology{TopologyStar, TopologyAllPairs} {
		if got, err := ParseTopology(want.String()); got != want || err != nil {
			t.Errorf("ParseTopology(%q) = %v, %v", want.String(), got, err)
		}
		if raw, err := json.Marshal(want); string(raw) != `"`+want.String()+`"` || err != nil {
			t.Errorf("%v marshals to %s, %v", want, raw, err)
		}
	}
	if got, err := ParseTopology(""); got != TopologyStar || err != nil {
		t.Errorf(`ParseTopology("") = %v, %v; want the star`, got, err)
	}
	if _, err := ParseTopology("ring"); err == nil || !strings.Contains(err.Error(), `"ring"`) {
		t.Errorf(`ParseTopology("ring") error %v, want one naming it`, err)
	}
}
