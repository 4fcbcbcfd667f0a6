// Benchmarks regenerating each paper artifact at benchmark scale: one
// testing.B target per table/figure (see DESIGN.md §4 for the experiment
// index; cmd/experiments produces the full tables) plus the ablation
// benches of DESIGN.md §6. Custom metrics carry the figure's own units
// (virtual seconds, GB/s, marked fraction) alongside wall ns/op.
package repro_test

import (
	"context"
	"fmt"
	"testing"

	"repro"
	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// benchPair provisions a synthetic checkpoint pair (1 MiB per field by
// default) with metadata on a fresh store.
type benchPair struct {
	store        *pfs.Store
	nameA, nameB string
	fields       []ckpt.FieldSpec
	dataA, dataB [][]byte
	opts         compare.Options
}

func newBenchPair(b *testing.B, elems int, eps float64, chunk int) *benchPair {
	b.Helper()
	store, err := pfs.NewStore(b.TempDir(), pfs.LustreModel())
	if err != nil {
		b.Fatal(err)
	}
	const nFields = 3
	dataA, dataB := synth.RunPair(elems, nFields, 11, synth.DefaultPerturb(13))
	fields := make([]ckpt.FieldSpec, nFields)
	for i, n := range []string{"x", "vx", "phi"} {
		fields[i] = ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: int64(elems)}
	}
	opts := compare.Options{Epsilon: eps, ChunkSize: chunk, Exec: device.NewParallel(2)}
	bp := &benchPair{
		store: store, fields: fields, dataA: dataA, dataB: dataB, opts: opts,
		nameA: ckpt.Name("bA", 0, 0), nameB: ckpt.Name("bB", 0, 0),
	}
	for _, rd := range []struct {
		meta ckpt.Meta
		data [][]byte
		name string
	}{
		{ckpt.Meta{RunID: "bA", Fields: fields}, dataA, bp.nameA},
		{ckpt.Meta{RunID: "bB", Fields: fields}, dataB, bp.nameB},
	} {
		if _, err := ckpt.WriteCheckpoint(store, rd.meta, rd.data); err != nil {
			b.Fatal(err)
		}
		m, _, err := compare.Build(fields, rd.data, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := compare.SaveMetadata(store, rd.name, m); err != nil {
			b.Fatal(err)
		}
	}
	return bp
}

func (bp *benchPair) bytesPerRun() int64 {
	var t int64
	for _, f := range bp.fields {
		t += f.Bytes()
	}
	return t
}

// BenchmarkTable1Checkpoint measures capture of a Table 1 HACC-schema
// checkpoint (write + header parse round trip).
func BenchmarkTable1Checkpoint(b *testing.B) {
	store, err := pfs.NewStore(b.TempDir(), pfs.NVMeModel())
	if err != nil {
		b.Fatal(err)
	}
	const particles = 1 << 16
	fields := make([]ckpt.FieldSpec, 0, 7)
	data := make([][]byte, 0, 7)
	for i, n := range []string{"x", "y", "z", "vx", "vy", "vz", "phi"} {
		fields = append(fields, ckpt.FieldSpec{Name: n, DType: errbound.Float32, Count: particles})
		data = append(data, synth.FieldF32(particles, int64(i)))
	}
	b.SetBytes(7 * particles * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		meta := ckpt.Meta{RunID: "t1", Iteration: i, Rank: 0, Fields: fields}
		if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
			b.Fatal(err)
		}
		r, _, err := ckpt.OpenReader(store, ckpt.Name("t1", i, 0))
		if err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

// benchCompare runs one comparison per iteration, reporting the figure's
// virtual-clock throughput as a custom metric.
func benchCompare(b *testing.B, bp *benchPair, method compare.Method) {
	b.Helper()
	b.SetBytes(2 * bp.bytesPerRun())
	var lastTh float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.store.EvictAll()
		res, err := method.Run(context.Background(), bp.store, bp.nameA, bp.nameB, bp.opts)
		if err != nil {
			b.Fatal(err)
		}
		lastTh = res.ThroughputGBps()
	}
	b.ReportMetric(lastTh, "modelGB/s")
}

// BenchmarkFig5 benchmarks the three compared approaches of Fig. 5 at two
// representative sweep points.
func BenchmarkFig5(b *testing.B) {
	for _, cfg := range []struct {
		eps   float64
		chunk int
	}{{1e-3, 4 << 10}, {1e-7, 64 << 10}} {
		bp := newBenchPair(b, 1<<18, cfg.eps, cfg.chunk)
		for _, m := range []compare.Method{compare.MethodAllClose, compare.MethodDirect, compare.MethodMerkle} {
			b.Run(fmt.Sprintf("eps=%.0e/chunk=%dK/%s", cfg.eps, cfg.chunk/1024, m), func(b *testing.B) {
				benchCompare(b, bp, m)
			})
		}
	}
}

// BenchmarkFig6Breakdown measures the full Merkle comparison and reports
// the phase split of Fig. 6 as custom metrics (virtual milliseconds).
func BenchmarkFig6Breakdown(b *testing.B) {
	bp := newBenchPair(b, 1<<18, 1e-5, 32<<10)
	var res *compare.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.store.EvictAll()
		var err error
		res, err = compare.CompareMerkle(context.Background(), bp.store, bp.nameA, bp.nameB, bp.opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res != nil {
		b.ReportMetric(res.Breakdown.Get(2).Virtual.Seconds()*1e3, "read-ms")
		b.ReportMetric(res.Breakdown.Get(5).Virtual.Seconds()*1e3, "verify-ms")
	}
}

// BenchmarkFig7Effectiveness reports the hash-stage effectiveness metrics
// of Fig. 7 (marked fraction, false positive rate).
func BenchmarkFig7Effectiveness(b *testing.B) {
	bp := newBenchPair(b, 1<<18, 1e-5, 8<<10)
	var res *compare.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bp.store.EvictAll()
		var err error
		res, err = compare.CompareMerkle(context.Background(), bp.store, bp.nameA, bp.nameB, bp.opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res != nil {
		b.ReportMetric(res.MarkedFraction(), "marked-frac")
		b.ReportMetric(res.FalsePositiveRate(), "fp-rate")
	}
}

// BenchmarkFig8TreeBuild measures Merkle metadata construction with the
// serial "CPU" executor vs the parallel "GPU" executor (Fig. 8's wall
// counterpart; the virtual gap is in cmd/experiments -fig 8).
func BenchmarkFig8TreeBuild(b *testing.B) {
	const elems = 1 << 19
	fields := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: elems}}
	data := [][]byte{synth.FieldF32(elems, 3)}
	for _, cfg := range []struct {
		name string
		opts compare.Options
	}{
		{"CPU", compare.Options{Epsilon: 1e-7, ChunkSize: 4 << 10, Exec: device.Serial{}, Device: device.CPUModel()}},
		{"GPU", compare.Options{Epsilon: 1e-7, ChunkSize: 4 << 10, Exec: device.NewParallel(0), Device: device.GPUModel()}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.SetBytes(4 * elems)
			var stats compare.BuildStats
			for i := 0; i < b.N; i++ {
				var err error
				_, stats, err = compare.Build(fields, data, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(stats.TotalVirtual().Seconds()*1e3, "model-ms")
		})
	}
}

// BenchmarkFig9Backends measures the scattered verification reads with
// the mmap vs io_uring backends.
func BenchmarkFig9Backends(b *testing.B) {
	for _, backend := range []aio.Backend{aio.Mmap{}, aio.NewUring(256)} {
		b.Run(backend.Name(), func(b *testing.B) {
			bp := newBenchPair(b, 1<<18, 1e-7, 4<<10)
			bp.opts.Backend = backend
			benchCompare(b, bp, compare.MethodMerkle)
		})
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationBlockChain compares the paper's chained 128-bit block
// hashing against hashing the whole quantized chunk in one Murmur3F call.
func BenchmarkAblationBlockChain(b *testing.B) {
	chunk := synth.FieldF32(16<<10/4, 5)
	h, err := errbound.NewHasher(errbound.Float32, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("chained", func(b *testing.B) {
		b.SetBytes(int64(len(chunk)))
		for i := 0; i < b.N; i++ {
			if _, err := h.HashChunk(chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("flat", func(b *testing.B) {
		b.SetBytes(int64(len(chunk)))
		// Flat variant: quantize into one buffer, single hash call.
		cells := make([]byte, len(chunk)*2)
		for i := 0; i < b.N; i++ {
			murmur3.SumDigest(cells, murmur3.Digest{})
		}
	})
}

// BenchmarkAblationBFSStart compares starting the tree diff at the root
// vs the paper's mid-tree heuristic.
func BenchmarkAblationBFSStart(b *testing.B) {
	const leaves = 1 << 14
	mk := func(mutate bool) *merkle.Tree {
		ds := make([]murmur3.Digest, leaves)
		for i := range ds {
			tag := []byte{byte(i), byte(i >> 8)}
			if mutate && i%97 == 0 {
				tag = append(tag, 1)
			}
			ds[i] = murmur3.SumDigest(tag, murmur3.Digest{})
		}
		tr, err := merkle.New(leaves*64, 64, ds)
		if err != nil {
			b.Fatal(err)
		}
		tr.Build(nil)
		return tr
	}
	ta, tb := mk(false), mk(true)
	exec := device.NewParallel(2)
	for _, cfg := range []struct {
		name  string
		level int
	}{{"root", 0}, {"mid", ta.DefaultStartLevel(exec.Workers())}} {
		b.Run(cfg.name, func(b *testing.B) {
			var nodes int64
			for i := 0; i < b.N; i++ {
				var err error
				_, nodes, err = merkle.Diff(ta, tb, cfg.level, exec)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(nodes), "nodes-visited")
		})
	}
}

// BenchmarkAblationPipeline compares the double-buffered verification
// pipeline against an effectively synchronous one (one giant slice).
func BenchmarkAblationPipeline(b *testing.B) {
	for _, cfg := range []struct {
		name       string
		sliceBytes int
	}{{"double-buffered", 256 << 10}, {"synchronous", 1 << 30}} {
		b.Run(cfg.name, func(b *testing.B) {
			bp := newBenchPair(b, 1<<18, 1e-7, 8<<10)
			bp.opts.SliceBytes = cfg.sliceBytes
			benchCompare(b, bp, compare.MethodMerkle)
		})
	}
}

// BenchmarkAblationCoalescing compares plain scattered reads against the
// coalescing wrapper on a clustered candidate set.
func BenchmarkAblationCoalescing(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		backend aio.Backend
	}{
		{"plain", aio.NewUring(256)},
		{"coalesced", aio.NewCoalescing(aio.NewUring(256), 16<<10)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			bp := newBenchPair(b, 1<<18, 1e-5, 4<<10)
			bp.opts.Backend = cfg.backend
			benchCompare(b, bp, compare.MethodMerkle)
		})
	}
}

// BenchmarkAblationRounding compares the conservative ε-grid quantization
// against naive mantissa truncation.
func BenchmarkAblationRounding(b *testing.B) {
	chunk := synth.FieldF32(16<<10/4, 7)
	grid, err := errbound.NewHasher(errbound.Float32, 1e-6)
	if err != nil {
		b.Fatal(err)
	}
	trunc, err := errbound.NewTruncationHasher(errbound.Float32, 12)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("grid", func(b *testing.B) {
		b.SetBytes(int64(len(chunk)))
		for i := 0; i < b.N; i++ {
			if _, err := grid.HashChunk(chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("truncation", func(b *testing.B) {
		b.SetBytes(int64(len(chunk)))
		for i := 0; i < b.N; i++ {
			if _, err := trunc.HashChunk(chunk); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkHistoryCompare measures the public-API whole-history flow.
func BenchmarkHistoryCompare(b *testing.B) {
	store, err := repro.NewStore(b.TempDir(), repro.LustreModel())
	if err != nil {
		b.Fatal(err)
	}
	opts := repro.Options{Epsilon: 1e-5, ChunkSize: 16 << 10}
	const elems = 1 << 16
	fields := []repro.FieldSpec{{Name: "x", DType: repro.Float32, Count: elems}}
	for _, run := range []string{"hA", "hB"} {
		for iter := 0; iter < 4; iter++ {
			data := synth.FieldF32(elems, int64(iter))
			if run == "hB" {
				data = synth.PerturbF32(data, synth.DefaultPerturb(int64(iter)))
			}
			meta := repro.Checkpoint{RunID: run, Iteration: iter, Rank: 0, Fields: fields}
			if _, err := repro.WriteCheckpoint(store, meta, [][]byte{data}); err != nil {
				b.Fatal(err)
			}
			if _, _, err := repro.BuildAndSave(context.Background(), store, repro.CheckpointName(run, iter, 0), opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store.EvictAll()
		if _, err := repro.CompareHistories(context.Background(), store, "hA", "hB", repro.MethodMerkle, opts); err != nil {
			b.Fatal(err)
		}
	}
}
