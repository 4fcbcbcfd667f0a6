package stream

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/dettest"
	"repro/internal/device"
	"repro/internal/pfs"
)

// TestClusteredPipelineMatchesBaseline holds stage 2 on the paper's
// clustered-divergence pattern to testdata/clustered.golden, the numbers
// it was first recorded with: 2 048 candidate 4 KiB chunks in 256 bursts
// of 8 adjacent chunks over two 64 MiB runs (run B's bursts trail run A's
// by one burst), through 1 MiB windows. The engines: run A and run B
// priced one after the other (the speedup baseline), as one overlapped
// pair, and as a pair whose bursts coalesce into one read each, at depths
// 1, 2 and 4. Compute is priced at the GPU model's compare rate; a
// one-worker executor makes the table the same at any GOMAXPROCS.
func TestClusteredPipelineMatchesBaseline(t *testing.T) {
	const fileBytes, chunk, chunks, clusters, slice = 64 << 20, 4 << 10, 2048, 256, 1 << 20
	store, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, 1<<20)
	var files []*pfs.File
	for _, name := range []string{"runA.ckpt", "runB.ckpt"} {
		w, err := store.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < fileBytes; n += len(block) {
			if _, err := w.Write(block); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f, err := store.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		files = append(files, f)
	}
	plan, perCluster := NewPlan(files...), chunks/clusters
	for i := 0; i < chunks; i++ {
		off := int64(i/perCluster*(fileBytes/clusters) + i%perCluster*chunk)
		plan.Add(i, 0, off, 1, off+int64(perCluster*chunk), chunk)
	}
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	dev := device.GPUModel()
	var out bytes.Buffer
	dettest.Row(t, &out, "workload", map[string]any{"file_bytes": fileBytes, "chunk_bytes": chunk, "chunks": chunks,
		"clusters": clusters, "slice_bytes": slice})
	var baseline float64
	for _, v := range []struct {
		name    string
		depth   int
		backend aio.Backend
		maxGap  int
	}{
		{"plain_fresh_serial_depth1", 1, serial{aio.NewUring(64)}, 0},
		{"plain_fresh_serial_depth2", 2, serial{aio.NewUring(64)}, 0},
		{"ring_pair_depth1", 1, aio.NewUring(64), 0},
		{"ring_pair_depth2", 2, aio.NewUring(64), 0},
		{"ring_pair_depth4", 4, aio.NewUring(64), 0},
		{"ring_pair_coalesce_depth2", 2, aio.NewUring(64), 16 << 10},
		{"ring_pair_coalesce_depth4", 4, aio.NewUring(64), 16 << 10},
	} {
		store.EvictAll()
		cfg := Config{Backend: v.backend, MaxGap: v.maxGap, Exec: device.Serial{}, Device: dev, SliceBytes: slice, Depth: v.depth}
		st, err := Run(context.Background(), plan, cfg, func(_ int, _ Job, a, _ []byte) (time.Duration, error) {
			return dev.CompareRateTime(int64(len(a))), nil
		})
		if err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
		pipeline := ms(st.PipelineVirtual)
		if baseline == 0 {
			baseline = pipeline
		}
		label := v.backend.Name()
		if v.maxGap > 0 {
			label += "+coalesce" // the label the golden was written under
		}
		dettest.Row(t, &out, "pipelines", map[string]any{"name": v.name, "backend": label, "depth": v.depth,
			"slices": st.Slices, "read_ops": st.ReadCost.Ops, "bytes_read": st.BytesRead, "pipeline_virtual_ms": pipeline,
			"io_virtual_ms": ms(st.IOVirtual), "compute_virtual_ms": ms(st.ComputeVirtual), "speedup_vs_baseline": baseline / pipeline})
	}
	dettest.Golden(t, "testdata/clustered.golden", out.Bytes())
}
