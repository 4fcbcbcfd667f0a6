package compare

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/errbound"
	"repro/internal/pfs"
	"repro/internal/synth"
)

// captureShapeData is the capture_full benchmark's shape: 7 × 512 Ki f32,
// ε = 1e-5, 4 KiB chunks.
func captureShapeData() ([]ckpt.FieldSpec, [][]byte, Options) {
	const nFields, elems = 7, 512 << 10
	fields := make([]ckpt.FieldSpec, nFields)
	data := make([][]byte, nFields)
	for i := range fields {
		fields[i] = ckpt.FieldSpec{Name: fmt.Sprintf("f%d", i), DType: errbound.Float32, Count: elems}
		data[i] = synth.FieldF32(elems, int64(1000+i))
	}
	return fields, data, Options{Epsilon: 1e-5, ChunkSize: 4 << 10}
}

// BenchmarkBuild is the checkpoint-time build over resident buffers.
func BenchmarkBuild(b *testing.B) {
	fields, data, opts := captureShapeData()
	b.SetBytes(ckpt.Meta{Fields: fields}.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Build(fields, data, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildFromReader is the read-back build of a container on a
// store: the half of a capture_full op that follows the write.
func BenchmarkBuildFromReader(b *testing.B) {
	fields, data, opts := captureShapeData()
	store, err := pfs.NewStore(b.TempDir(), pfs.LustreModel())
	if err != nil {
		b.Fatal(err)
	}
	meta := ckpt.Meta{RunID: "bench", Fields: fields}
	if _, err := ckpt.WriteCheckpoint(store, meta, data); err != nil {
		b.Fatal(err)
	}
	r, _, err := ckpt.OpenReader(store, ckpt.Name(meta.RunID, 0, 0))
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.SetBytes(meta.TotalBytes())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := BuildFromReader(context.Background(), r, opts); err != nil {
			b.Fatal(err)
		}
	}
}
