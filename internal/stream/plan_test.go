package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/pfs"
)

// nFiles creates n files of distinct deterministic content on one store.
func nFiles(t *testing.T, n, size int) ([]*pfs.File, [][]byte) {
	t.Helper()
	s, err := pfs.NewStore(t.TempDir(), pfs.LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	files, data := make([]*pfs.File, n), make([][]byte, n)
	for i := range files {
		name := fmt.Sprintf("run%d.bin", i)
		data[i] = make([]byte, size)
		rand.New(rand.NewSource(int64(i + 1))).Read(data[i])
		w, err := s.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data[i]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if files[i], err = s.Open(name); err != nil {
			t.Fatal(err)
		}
		f := files[i]
		t.Cleanup(func() { f.Close() })
	}
	return files, data
}

// starPlan is the plan of a star group: source 0 against each of the
// others at every chunk — jobs ordered (chunk, pair), as the group planner
// orders them, so source 0's chunk is named by consecutive jobs.
func starPlan(files []*pfs.File, chunks, chunk int) *Plan {
	plan := NewPlan(files...)
	for c := 0; c < chunks; c++ {
		off := int64(c * chunk)
		for run := 1; run < len(files); run++ {
			plan.Add(len(plan.Jobs), 0, off, run, off, chunk)
		}
	}
	return plan
}

func TestSealOrdersAndDeduplicatesExtents(t *testing.T) {
	files, _ := nFiles(t, 2, 4096)
	plan := NewPlan(files...)
	type side struct {
		src int
		off int64
	}
	var want [][2]side
	add := func(a int, offA int64, b int, offB int64) {
		plan.Add(len(plan.Jobs), a, offA, b, offB, 64)
		want = append(want, [2]side{{a, offA}, {b, offB}})
	}
	add(0, 512, 1, 512)
	add(0, 0, 1, 512) // source 1's extent again
	add(0, 512, 1, 0) // source 0's extent again, source 1 out of order
	add(0, 256, 0, 0) // both sides in one source
	plan.Seal()
	check := func() {
		t.Helper()
		for s, src := range plan.Sources {
			for i := 1; i < len(src.Extents); i++ {
				if src.Extents[i-1].Off >= src.Extents[i].Off {
					t.Fatalf("source %d extents not strictly ascending: %v", s, src.Extents)
				}
			}
		}
		if n0, n1 := len(plan.Sources[0].Extents), len(plan.Sources[1].Extents); n0 != 3 || n1 != 2 {
			t.Fatalf("%d and %d extents, want 3 and 2 distinct", n0, n1)
		}
		for i, j := range plan.Jobs {
			for k, ref := range [2]Ref{j.A, j.B} {
				if ref.Src != want[i][k].src || plan.Sources[ref.Src].Extents[ref.Ext].Off != want[i][k].off {
					t.Errorf("job %d side %d names source %d offset %d, want source %d offset %d", i, k,
						ref.Src, plan.Sources[ref.Src].Extents[ref.Ext].Off, want[i][k].src, want[i][k].off)
				}
			}
		}
	}
	check()
	plan.Seal() // sealing a sealed plan changes nothing
	check()
}

// TestRunSharedExtentReadOnce: an extent several jobs name is requested
// once per window, every job sees its bytes, and a window boundary does not
// fall between jobs that share one.
func TestRunSharedExtentReadOnce(t *testing.T) {
	const chunks, chunk = 48, 4096
	files, data := nFiles(t, 4, chunks*chunk)
	for _, sliceBytes := range []int{1 << 20, 16 * chunk} { // one window, then three
		cb := &countingBackend{inner: aio.Mmap{}}
		pool := device.NewPool(4)
		cfg := Config{Backend: cb, Exec: pool, Device: device.GPUModel(), SliceBytes: sliceBytes}
		plan := starPlan(files, chunks, chunk)
		seen := make([]atomic.Int32, len(plan.Jobs))
		stats, err := Run(context.Background(), plan, cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
			seen[j.Index].Add(1)
			off := int64(j.Index / 3 * chunk)
			if !bytes.Equal(a, data[0][off:off+chunk]) || !bytes.Equal(b, data[j.B.Src][off:off+chunk]) {
				t.Errorf("job %d misdelivered", j.Index)
			}
			return 0, nil
		})
		pool.Close()
		if err != nil {
			t.Fatal(err)
		}
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("job %d computed %d times", i, n)
			}
		}
		if want := 1 + (chunks*chunk-1)/sliceBytes; stats.Slices != want {
			t.Errorf("SliceBytes %d: %d windows, want %d", sliceBytes, stats.Slices, want)
		}
		// Four sources' chunks, each once: source 0's is not re-read for its
		// second and third job, in the same window or the next.
		if got := atomic.LoadInt32(&cb.reqs); got != 4*chunks {
			t.Errorf("SliceBytes %d: backend saw %d requests, want %d", sliceBytes, got, 4*chunks)
		}
		if stats.BytesRead != 4*chunks*chunk {
			t.Errorf("SliceBytes %d: BytesRead = %d, want %d", sliceBytes, stats.BytesRead, 4*chunks*chunk)
		}
	}
}

// failNamed fails every batch priced against files whose name contains
// match.
type failNamed struct {
	inner aio.Backend
	match string
}

func (b failNamed) Name() string { return "failnamed" }

func (b failNamed) Price(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	if strings.Contains(f.Name(), b.match) {
		return pfs.Cost{}, 0, errBoom
	}
	return b.inner.Price(ctx, f, reqs)
}

// TestRunDeadSourceSkipsItsJobs: under Plan.Degrade a source no rung can
// read costs only the jobs that name it — here and in every later window —
// while strict mode fails the run.
func TestRunDeadSourceSkipsItsJobs(t *testing.T) {
	const chunks, chunk = 32, 4096
	files, data := nFiles(t, 4, chunks*chunk)
	cfg := Config{Backend: failNamed{inner: aio.Mmap{}, match: "run2"}, Device: device.GPUModel(), SliceBytes: 8 * chunk}
	plan := starPlan(files, chunks, chunk)
	if _, err := Run(context.Background(), plan, cfg, func(int, Job, []byte, []byte) (time.Duration, error) {
		return 0, nil
	}); !errors.Is(err, errBoom) {
		t.Fatalf("strict run error = %v, want the read failure", err)
	}

	plan.Degrade = true
	delivered := 0
	stats, err := Run(context.Background(), plan, cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
		delivered++
		if j.B.Src == 2 {
			t.Errorf("job %d names the dead source and was delivered", j.Index)
		}
		off := int64(j.Index / 3 * chunk)
		if !bytes.Equal(a, data[0][off:off+chunk]) || !bytes.Equal(b, data[j.B.Src][off:off+chunk]) {
			t.Errorf("job %d misdelivered", j.Index)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatalf("degraded run must absorb the dead source: %v", err)
	}
	if delivered != 2*chunks {
		t.Errorf("%d jobs delivered, want the %d that do not name the dead source", delivered, 2*chunks)
	}
	if stats.Slices < 3 {
		t.Errorf("%d windows, want the source dead across several", stats.Slices)
	}
	if want := int64(3 * chunks * chunk); stats.BytesRead != want {
		t.Errorf("BytesRead = %d, want the three live sources' %d", stats.BytesRead, want)
	}
}

// TestRunCheckSettlesEachExtentOnce: the integrity rung sees every extent
// of a window exactly once, before any job, whatever the number of jobs and
// ranges naming it; a repair in a buffer of the rung's own reaches every
// job, a rejection reaches them as a nil side.
func TestRunCheckSettlesEachExtentOnce(t *testing.T) {
	const chunks, chunk = 48, 4096
	files, data := nFiles(t, 4, chunks*chunk)
	pool := device.NewPool(4)
	defer pool.Close()
	cfg := Config{Backend: aio.Mmap{}, Exec: pool, Device: device.GPUModel(), SliceBytes: 16 * chunk}
	plan := starPlan(files, chunks, chunk)
	plan.Degrade = true

	var mu sync.Mutex
	checked := make(map[Ref]int)
	plan.Check = func(_ context.Context, r, src, ext int, got []byte) []byte {
		mu.Lock()
		checked[Ref{src, ext}]++
		mu.Unlock()
		if r < 0 || r >= MaxRanges(pool) {
			t.Errorf("check ran in range %d", r)
		}
		off := plan.Sources[src].Extents[ext].Off
		if !bytes.Equal(got, data[src][off:off+chunk]) {
			t.Errorf("source %d extent %d: wrong bytes checked", src, ext)
		}
		switch {
		case src == 0 && ext%2 == 0:
			own := bytes.Clone(got)
			own[0] ^= 0xff // "repaired": every job must see this
			return own
		case src == 3 && ext%4 == 0:
			return nil
		}
		return got
	}
	_, err := Run(context.Background(), plan, cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
		mu.Lock()
		settled := checked[j.A] == 1 && checked[j.B] == 1
		mu.Unlock()
		if !settled {
			t.Errorf("job %d ran before both its extents were checked", j.Index)
		}
		off := plan.Sources[0].Extents[j.A.Ext].Off
		if want := data[0][off] ^ 0xff; j.A.Ext%2 == 0 && a[0] != want {
			t.Errorf("job %d: the repaired byte did not reach the job", j.Index)
		}
		if rejected := j.B.Src == 3 && j.B.Ext%4 == 0; rejected != (b == nil) {
			t.Errorf("job %d: rejected=%v but side is nil=%v", j.Index, rejected, b == nil)
		}
		return 0, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(checked) != 4*chunks {
		t.Errorf("%d extents checked, want %d", len(checked), 4*chunks)
	}
	for ref, n := range checked {
		if n != 1 {
			t.Errorf("source %d extent %d checked %d times", ref.Src, ref.Ext, n)
		}
	}
}
