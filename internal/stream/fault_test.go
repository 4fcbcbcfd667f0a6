package stream

import (
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/pfs"
)

// The fault contract: a range reads views of files that may lose bytes
// under it. A truncation the range meets — as a fault in a kernel, a fault
// in the integrity rung, or zeros past a mid-page end the size check finds
// — fails a strict run with one error, the same on every trial, wrapping
// io.ErrUnexpectedEOF and naming the file; under Degrade no job keeps a
// verdict from bytes the file lost.

const (
	faultChunk  = 64 << 10
	faultChunks = 32
)

// floatRuns writes two runs of faultChunks float32 chunks — B within a
// jitter of A — and opens them.
func floatRuns(t testing.TB) (fa, fb *pfs.File) {
	t.Helper()
	s, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	a, b := make([]byte, faultChunks*faultChunk), make([]byte, faultChunks*faultChunk)
	for i := 0; i < len(a); i += 4 {
		x := rng.Float32()
		binary.LittleEndian.PutUint32(a[i:], math.Float32bits(x))
		binary.LittleEndian.PutUint32(b[i:], math.Float32bits(x+float32(rng.NormFloat64()*1e-5)))
	}
	open := func(name string, data []byte) *pfs.File {
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
		f, err := s.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	return open("runA", a), open("runB", b)
}

// cut truncates f's file to size.
func cut(f *pfs.File, size int64) error {
	return os.Truncate(filepath.Join(f.Store().Root(), filepath.FromSlash(f.Name())), size)
}

// faultCase is one way a run meets a truncation of run A to size.
type faultCase struct {
	name string
	size int64 // what run A is cut to
	// arm installs the truncation and the integrity rung on a fresh plan.
	arm func(plan *Plan, fa *pfs.File, h *errbound.Hasher)
}

func faultCases() []faultCase {
	const whole = faultChunks * faultChunk
	// afterLanding cuts run A while run B's extents are checked: run A's
	// extents landed and passed their check, and the verify pass reads them.
	afterLanding := func(size int64) func(*Plan, *pfs.File, *errbound.Hasher) {
		return func(plan *Plan, fa *pfs.File, _ *errbound.Hasher) {
			var once sync.Once
			plan.Check = func(_ context.Context, _, src, _ int, data []byte) []byte {
				if src == 1 {
					once.Do(func() {
						if err := cut(fa, size); err != nil {
							panic(err)
						}
					})
				}
				return data
			}
		}
	}
	return []faultCase{
		{"fault in flagF32", whole / 2, afterLanding(whole / 2)},
		{"fault in HashChunk", whole / 2, func(plan *Plan, fa *pfs.File, h *errbound.Hasher) {
			fa.Store().SetFaultHook(&truncateOnPrice{store: fa.Store(), name: fa.Name(), to: whole / 2})
			plan.Check = func(_ context.Context, _, _, _ int, data []byte) []byte {
				if _, err := h.HashChunk(data); err != nil {
					panic(err)
				}
				return data
			}
		}},
		// Cut inside the last extent, off a page boundary: its tail reads
		// as zeros, no fault fires, and only the size check can tell.
		{"zeros past a mid-page end", whole - 100, afterLanding(whole - 100)},
		{"zeros past a mid-page end, cut at pricing", whole - 100, func(plan *Plan, fa *pfs.File, _ *errbound.Hasher) {
			fa.Store().SetFaultHook(&truncateOnPrice{store: fa.Store(), name: fa.Name(), to: whole - 100})
		}},
	}
}

// runFaultCase runs one trial: a fresh pair, the case armed, every job
// compared by the ε-kernel. It returns Run's error and, by job, whether
// the job's last delivery carried bytes.
func runFaultCase(t *testing.T, fc faultCase, exec device.Executor, degrade bool) (error, *pfs.File, []bool) {
	t.Helper()
	fa, fb := floatRuns(t)
	h, err := errbound.NewHasher(errbound.Float32, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	plan := pairPlan(fa, fb, pairsEvery(faultChunks, faultChunk, faultChunk))
	plan.Degrade = degrade
	fc.arm(plan, fa, h)
	defer fa.Store().SetFaultHook(nil)
	kept := make([]bool, len(plan.Jobs))
	cfg := Config{Backend: aio.NewUring(64), Exec: exec, Device: device.GPUModel()}
	_, err = Run(context.Background(), plan, cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
		kept[j.Index] = a != nil && b != nil
		if kept[j.Index] {
			if _, _, err := h.CompareSlices(nil, a, b); err != nil {
				return 0, err
			}
		}
		return 0, nil
	})
	return err, fa, kept
}

// TestTruncationUnderViews holds the fault contract on pools 1 and 4, ten
// trials each.
func TestTruncationUnderViews(t *testing.T) {
	for _, fc := range faultCases() {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/pool-%d", fc.name, workers), func(t *testing.T) {
				pool := device.NewPool(workers)
				defer pool.Close()
				var first string
				for trial := 0; trial < 10; trial++ {
					err, fa, _ := runFaultCase(t, fc, pool, false)
					if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), fa.Name()) {
						t.Fatalf("strict: err = %v, want %s short", err, fa.Name())
					}
					if first == "" {
						first = err.Error()
						t.Logf("strict: %v", err)
					} else if err.Error() != first {
						t.Fatalf("trial %d: error %q, the first trial's %q", trial, err, first)
					}
				}

				err, _, kept := runFaultCase(t, fc, pool, true)
				if err != nil {
					t.Fatalf("degraded: %v", err)
				}
				for i, k := range kept {
					if k && int64(i+1)*faultChunk > fc.size {
						t.Errorf("degraded: job %d kept a verdict from bytes run A lost", i)
					}
				}
			})
		}
	}
}

// TestWriteToViewCrashes: only a read of bytes a file lost is recovered.
// A Compute that writes to its view faults at an address the file still
// holds, and the fault is re-raised: the process dies. The test runs
// itself as a child process to watch it die (of the SIGSEGV, or of the
// panic a range still running meets as the run unwinds).
func TestWriteToViewCrashes(t *testing.T) {
	const child = "write-to-view"
	if flag.Arg(0) == child {
		fa, fb := floatRuns(t)
		pool := device.NewPool(2)
		defer pool.Close()
		cfg := Config{Backend: aio.NewUring(64), Exec: pool, Device: device.GPUModel()}
		_, err := Run(context.Background(), pairPlan(fa, fb, pairsEvery(4, faultChunk, faultChunk)), cfg,
			func(_ int, _ Job, a, _ []byte) (time.Duration, error) {
				a[0] ^= 1
				return 0, nil
			})
		t.Logf("the write to a view came back as %v", err)
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestWriteToViewCrashes$", "-test.count=1", child).CombinedOutput()
	if err == nil || !strings.Contains(string(out), "panic: runtime error") {
		t.Fatalf("a write to a view did not crash the process (%v):\n%s", err, out)
	}
}
