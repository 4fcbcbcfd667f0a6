package stream

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/pfs"
)

// serial prices a pair's two batches one after the other, each paying its
// own final completion latency: embedding the Backend hides Uring's
// PricePair.
type serial struct{ aio.Backend }

func (serial) Name() string { return "io_uring_fresh" }

// twoFiles creates two files with deterministic distinct content.
func twoFiles(t *testing.T, size int) (*pfs.File, *pfs.File, []byte, []byte) {
	t.Helper()
	s, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	mk := func(name string, seed int64) ([]byte, *pfs.File) {
		data := make([]byte, size)
		rand.New(rand.NewSource(seed)).Read(data)
		w, err := s.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		s.Evict(name)
		f, err := s.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return data, f
	}
	da, fa := mk("a.bin", 1)
	db, fb := mk("b.bin", 2)
	return fa, fb, da, db
}

// chunkPair is one job of a test plan: the same-length chunk at an offset
// in each of two files (or at two offsets of one).
type chunkPair struct {
	Index      int
	OffA, OffB int64
	Len        int
}

func pairsEvery(n, chunk, stride int) []chunkPair {
	pairs := make([]chunkPair, n)
	for i := range pairs {
		off := int64(i * stride)
		pairs[i] = chunkPair{Index: i, OffA: off, OffB: off, Len: chunk}
	}
	return pairs
}

// pairPlan is the two-source plan of a pair comparison: every job reads
// side A from fa and side B from fb. The same file twice is the one-source
// plan of a differential comparison.
func pairPlan(fa, fb *pfs.File, pairs []chunkPair) *Plan {
	plan, b := NewPlan(fa, fb), 1
	if fa == fb {
		plan, b = NewPlan(fa), 0
	}
	for _, p := range pairs {
		plan.Add(p.Index, 0, p.OffA, b, p.OffB, p.Len)
	}
	return plan
}

func TestRunDeliversCorrectBuffers(t *testing.T) {
	fa, fb, da, db := twoFiles(t, 1<<20)
	pairs := pairsEvery(64, 4096, 8192)
	var visited int32
	cfg := Config{Backend: aio.NewUring(16), Device: device.GPUModel(), SliceBytes: 64 << 10}
	stats, err := Run(context.Background(), pairPlan(fa, fb, pairs), cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
		p := pairs[j.Index]
		atomic.AddInt32(&visited, 1)
		if !bytes.Equal(a, da[p.OffA:p.OffA+int64(p.Len)]) {
			t.Errorf("chunk %d: run A buffer mismatch", p.Index)
		}
		if !bytes.Equal(b, db[p.OffB:p.OffB+int64(p.Len)]) {
			t.Errorf("chunk %d: run B buffer mismatch", p.Index)
		}
		return time.Microsecond, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if visited != 64 {
		t.Errorf("visited %d chunks, want 64", visited)
	}
	if stats.BytesRead != 2*64*4096 {
		t.Errorf("BytesRead = %d", stats.BytesRead)
	}
	if stats.Slices < 2 {
		t.Errorf("Slices = %d, want >= 2 with 64 KiB slices", stats.Slices)
	}
	if stats.PipelineVirtual <= 0 || stats.IOVirtual <= 0 || stats.ComputeVirtual <= 0 {
		t.Errorf("virtual stats not accounted: %+v", stats)
	}
}

func TestPipelineOverlapBound(t *testing.T) {
	// The overlapped total must be between max(io, compute) and io+compute.
	fa, fb, _, _ := twoFiles(t, 1<<20)
	pairs := pairsEvery(128, 4096, 8192)
	cfg := Config{Backend: aio.NewUring(32), Device: device.GPUModel(), SliceBytes: 128 << 10}
	kernel := 500 * time.Microsecond
	stats, err := Run(context.Background(), pairPlan(fa, fb, pairs), cfg, func(int, Job, []byte, []byte) (time.Duration, error) {
		return kernel, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lower := stats.IOVirtual
	if stats.ComputeVirtual > lower {
		lower = stats.ComputeVirtual
	}
	sum := stats.IOVirtual + stats.ComputeVirtual
	if stats.PipelineVirtual < lower || stats.PipelineVirtual > sum {
		t.Errorf("pipeline %v outside [max=%v, sum=%v]", stats.PipelineVirtual, lower, sum)
	}
	if stats.PipelineVirtual >= sum {
		t.Error("pipeline achieved no overlap at all")
	}
}

func TestRunEmptyPairs(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 4096)
	stats, err := Run(context.Background(), pairPlan(fa, fb, nil), Config{Backend: aio.Mmap{}, Device: device.GPUModel()}, func(int, Job, []byte, []byte) (time.Duration, error) {
		t.Error("compute called for empty pairs")
		return 0, nil
	})
	if err != nil || stats.Slices != 0 {
		t.Errorf("empty run: %+v, %v", stats, err)
	}
}

func TestRunBadPair(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 4096)
	pairs := []chunkPair{{Index: 0, OffA: 0, OffB: 0, Len: 0}}
	if _, err := Run(context.Background(), pairPlan(fa, fb, pairs), Config{Backend: aio.Mmap{}, Device: device.GPUModel()}, nil); err == nil {
		t.Error("zero-length chunk accepted")
	}
}

func TestRunComputeErrorStopsPipeline(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 1<<20)
	pairs := pairsEvery(64, 4096, 8192)
	wantErr := errors.New("kernel failed")
	cfg := Config{Backend: aio.NewUring(8), Device: device.GPUModel(), SliceBytes: 32 << 10}
	calls := 0
	_, err := Run(context.Background(), pairPlan(fa, fb, pairs), cfg, func(int, Job, []byte, []byte) (time.Duration, error) {
		calls++
		if calls == 3 {
			return 0, wantErr
		}
		return 0, nil
	})
	if !errors.Is(err, wantErr) {
		t.Errorf("error = %v, want %v", err, wantErr)
	}
}

func TestRunReadErrorPropagates(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 8192)
	// Request far past EOF: the read comes back short, which the mmap
	// backend tolerates but yields a backend error in uring only when the
	// request itself is invalid; use a negative offset to force an error.
	pairs := []chunkPair{{Index: 0, OffA: -4, OffB: 0, Len: 16}}
	if _, err := Run(context.Background(), pairPlan(fa, fb, pairs), Config{Backend: aio.NewUring(4), Device: device.GPUModel()}, func(int, Job, []byte, []byte) (time.Duration, error) {
		return 0, nil
	}); err == nil {
		t.Error("negative offset read accepted")
	}
}

func TestRunWithMmapBackend(t *testing.T) {
	fa, fb, da, _ := twoFiles(t, 256<<10)
	pairs := pairsEvery(16, 4096, 16384)
	cfg := Config{Backend: aio.Mmap{}, Device: device.CPUModel(), SliceBytes: 32 << 10}
	ok := true
	_, err := Run(context.Background(), pairPlan(fa, fb, pairs), cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
		p := pairs[j.Index]
		if !bytes.Equal(a, da[p.OffA:p.OffA+int64(p.Len)]) {
			ok = false
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("mmap-backed pipeline delivered wrong bytes")
	}
}

func TestDefaultsApplied(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 64<<10)
	pairs := pairsEvery(4, 4096, 8192)
	// Zero SliceBytes and Depth must be defaulted.
	stats, err := Run(context.Background(), pairPlan(fa, fb, pairs), Config{Backend: aio.Mmap{}, Device: device.GPUModel()}, func(int, Job, []byte, []byte) (time.Duration, error) {
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Slices != 1 {
		t.Errorf("Slices = %d, want 1 (all chunks fit one default slice)", stats.Slices)
	}
}
