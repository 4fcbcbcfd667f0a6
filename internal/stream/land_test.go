package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/faults"
	"repro/internal/pfs"
)

// landLog prices through inner and records, in order, what a run priced
// and what it copied. A window prices all its sources before any of its
// bytes land, so a pricing after a copy opens the next window.
type landLog struct {
	inner   aio.Backend
	mu      sync.Mutex
	windows []landWindow
	copying bool
}

// landWindow is what one window priced, by file, and the copies it issued.
type landWindow struct {
	priced map[*pfs.File][]Extent
	copies []landed
}

// landed is one copy: a file, an offset and a length.
type landed struct {
	file *pfs.File
	off  int64
	n    int
}

func (l *landLog) Name() string { return "log" }

func (l *landLog) Price(ctx context.Context, f *pfs.File, reqs []aio.ReadReq) (pfs.Cost, time.Duration, error) {
	l.mu.Lock()
	if l.copying || len(l.windows) == 0 {
		l.windows = append(l.windows, landWindow{priced: make(map[*pfs.File][]Extent)})
		l.copying = false
	}
	w := &l.windows[len(l.windows)-1]
	for _, q := range reqs {
		w.priced[f] = append(w.priced[f], Extent{Off: q.Off, Len: q.Len})
	}
	l.mu.Unlock()
	return l.inner.Price(ctx, f, reqs)
}

// record swaps the copy hook for one that logs every copy into the window
// being landed, and restores it when the test ends.
func (l *landLog) record(t testing.TB) {
	copyAt = func(f *pfs.File, p []byte, off int64) error {
		l.mu.Lock()
		l.copying = true
		w := &l.windows[len(l.windows)-1]
		w.copies = append(w.copies, landed{file: f, off: off, n: len(p)})
		l.mu.Unlock()
		return f.Copy(p, off)
	}
	t.Cleanup(func() { copyAt = (*pfs.File).Copy })
}

// checkLandings holds a run's copies to the landing contract, window by
// window: each copy is a run of whole extents the window priced, adjacent
// in the file, and every extent the window priced lands in exactly one
// copy.
func checkLandings(t testing.TB, l *landLog) {
	t.Helper()
	for wi, w := range l.windows {
		for f, exts := range w.priced {
			slices.SortFunc(exts, cmpExtent)
			exts = slices.Compact(exts)
			landedIn := make([]int, len(exts))
			for _, c := range w.copies {
				if c.file != f {
					continue
				}
				k, ok := slices.BinarySearchFunc(exts, c.off, func(e Extent, off int64) int { return cmpInt64(e.Off, off) })
				if !ok {
					t.Fatalf("window %d: a copy of %s starts at %d, no extent's start", wi, f.Name(), c.off)
				}
				for n := 0; n < c.n; k++ {
					if k == len(exts) || exts[k].Off != c.off+int64(n) {
						t.Fatalf("window %d: the copy of %s at %d+%d spans bytes no adjacent extent holds", wi, f.Name(), c.off, c.n)
					}
					landedIn[k]++
					n += exts[k].Len
					if n > c.n {
						t.Fatalf("window %d: the copy of %s at %d+%d ends inside an extent", wi, f.Name(), c.off, c.n)
					}
				}
			}
			for k, n := range landedIn {
				if n != 1 {
					t.Fatalf("window %d: extent %+v of %s landed %d times", wi, exts[k], f.Name(), n)
				}
			}
		}
	}
}

func cmpInt64(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// TestEachExtentLandsOncePerWindow: an extent jobs of several ranges name —
// a shared group member's chunk, a deduplicated pack chunk, both sides of a
// same-file pair — lands exactly once per window, every job sees its bytes,
// and the run is race-free on a pool wider than its jobs.
func TestEachExtentLandsOncePerWindow(t *testing.T) {
	const chunk = 64 << 10 // a range per job or two: sharing crosses range cuts
	files, data := nFiles(t, 4, 16*chunk)
	allPairs := func(p *Plan, chunks int) {
		for c := 0; c < chunks; c++ {
			off := int64(c * chunk)
			for a := 0; a < len(p.Sources); a++ {
				for b := a + 1; b < len(p.Sources); b++ {
					p.Add(len(p.Jobs), a, off, b, off, chunk)
				}
			}
		}
	}
	cases := []struct {
		name  string
		plan  func() *Plan
		slice int
	}{
		{"star", func() *Plan { return starPlan(files, 6, chunk) }, 1 << 30},
		{"star in windows", func() *Plan { return starPlan(files, 16, chunk) }, 5 * chunk},
		{"all-pairs", func() *Plan { p := NewPlan(files...); allPairs(p, 4); return p }, 1 << 30},
		{"cas pack", func() *Plan {
			// Four members viewing one pack: chunk c of a member is pack
			// chunk c or, deduplicated, pack chunk 0.
			p := NewPlan(files[0])
			for c := 1; c < 12; c++ {
				for m := 1; m < 4; m++ {
					b := int64(c * chunk)
					if (c+m)%3 == 0 {
						b = 0
					}
					p.Add(len(p.Jobs), 0, int64(c%4*chunk), 0, b, chunk)
				}
			}
			return p
		}, 1 << 30},
		{"same-file pair", func() *Plan { return pairPlan(files[1], files[1], samePackPairs(8, chunk)) }, 1 << 30},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/pool-%d", tc.name, workers), func(t *testing.T) {
				pool := device.NewPool(workers)
				defer pool.Close()
				log := &landLog{inner: aio.NewCoalescing(aio.NewUring(64), 0)}
				log.record(t)
				plan := tc.plan()
				index := map[*pfs.File]int{}
				for i, f := range files {
					index[f] = i
				}
				cfg := Config{Arena: aio.NewArena(0), Backend: log, Exec: pool, Device: device.GPUModel(), SliceBytes: tc.slice}
				seen := make([]int, len(plan.Jobs))
				var mu sync.Mutex
				stats, err := Run(context.Background(), plan, cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
					for _, side := range []struct {
						ref Ref
						got []byte
					}{{j.A, a}, {j.B, b}} {
						src := plan.Sources[side.ref.Src]
						e := src.Extents[side.ref.Ext]
						if !bytes.Equal(side.got, data[index[src.File]][e.Off:e.Off+int64(e.Len)]) {
							t.Errorf("job %d misdelivered", j.Index)
						}
					}
					mu.Lock()
					seen[j.Index]++
					mu.Unlock()
					return 0, nil
				})
				if err != nil {
					t.Fatal(err)
				}
				for i, n := range seen {
					if n != 1 {
						t.Fatalf("job %d computed %d times", i, n)
					}
				}
				if tc.slice < 1<<30 && stats.Slices < 3 {
					t.Fatalf("%d windows, want several", stats.Slices)
				}
				checkLandings(t, log)
			})
		}
	}
}

// truncateOnPrice shrinks a file to half its size the first time a read of
// it at or past from is priced: its bytes are gone by the time they land.
type truncateOnPrice struct {
	faults.Nop
	store *pfs.Store
	name  string
	from  int64
	once  sync.Once
}

func (h *truncateOnPrice) BeforeRead(name string, off int64, _ int) error {
	var err error
	if name == h.name && off >= h.from {
		h.once.Do(func() {
			path := filepath.Join(h.store.Root(), filepath.FromSlash(name))
			var st os.FileInfo
			if st, err = os.Stat(path); err == nil {
				err = os.Truncate(path, st.Size()/2)
			}
		})
	}
	return err
}

// TestTruncatedBetweenPriceAndCopy: a file that shrinks after its window was
// priced fails a strict run with the same error — the lowest failing
// range's, wrapping io.ErrUnexpectedEOF — on every trial; under Degrade its
// source is dead before any of its jobs runs, and the run completes
// without them.
func TestTruncatedBetweenPriceAndCopy(t *testing.T) {
	const chunk = 8 << 10
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("pool-%d", workers), func(t *testing.T) {
			pool := device.NewPool(workers)
			defer pool.Close()
			var first string
			for trial := 0; trial < 10; trial++ {
				fa, fb, _, _ := twoFiles(t, 64*chunk)
				fb.Store().SetFaultHook(&truncateOnPrice{store: fb.Store(), name: fb.Name()})
				plan := pairPlan(fa, fb, pairsEvery(60, chunk, chunk))
				cfg := Config{Arena: aio.NewArena(0), Backend: aio.NewCoalescing(aio.NewUring(64), 0), Exec: pool, Device: device.GPUModel()}
				_, err := Run(context.Background(), plan, cfg, func(int, Job, []byte, []byte) (time.Duration, error) { return 0, nil })
				if !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), fb.Name()) {
					t.Fatalf("strict run over a file truncated after pricing: err = %v, want %s short", err, fb.Name())
				}
				if first == "" {
					first = err.Error()
				} else if err.Error() != first {
					t.Fatalf("trial %d: error %q, the first trial's %q", trial, err, first)
				}
			}

			fa, fb, _, _ := twoFiles(t, 64*chunk)
			fb.Store().SetFaultHook(&truncateOnPrice{store: fb.Store(), name: fb.Name()})
			plan := pairPlan(fa, fb, pairsEvery(60, chunk, chunk))
			plan.Degrade = true
			cfg := Config{Arena: aio.NewArena(0), Backend: aio.NewCoalescing(aio.NewUring(64), 0), Exec: pool, Device: device.GPUModel()}
			stats, err := Run(context.Background(), plan, cfg, func(_ int, j Job, _, _ []byte) (time.Duration, error) {
				t.Errorf("job %d of the dead source was delivered", j.Index)
				return 0, nil
			})
			if err != nil || stats.ComputeVirtual != 0 {
				t.Fatalf("degraded run: err %v, %v of compute; want no error and no job run", err, stats.ComputeVirtual)
			}
		})
	}
}

// TestRunStartsNoGoroutine: a run — cut, price, land and verify, clean or
// failing — leaves the goroutine count where it found it, without waiting.
func TestRunStartsNoGoroutine(t *testing.T) {
	fa, fb, _, _ := twoFiles(t, 1<<20)
	pool := device.NewPool(4)
	defer pool.Close()
	base := runtime.NumGoroutine()
	for _, exec := range []device.Executor{device.Serial{}, pool} {
		for _, fail := range []bool{false, true} {
			cfg := Config{Arena: aio.NewArena(0), Backend: aio.NewCoalescing(aio.NewUring(64), 0), Exec: exec, Device: device.GPUModel(), SliceBytes: 64 << 10}
			_, err := Run(context.Background(), pairPlan(fa, fb, pairsEvery(64, 4096, 8192)), cfg, func(_ int, j Job, _, _ []byte) (time.Duration, error) {
				if fail && j.Index == 40 {
					return 0, errBoom
				}
				return 0, nil
			})
			if fail != (err != nil) {
				t.Fatalf("fail=%v: err = %v", fail, err)
			}
			if n := runtime.NumGoroutine(); n != base {
				t.Fatalf("%d goroutines after a run, %d before", n, base)
			}
		}
	}
}

// wideSerial runs a dispatch's items in order on the caller while claiming
// as many workers as it says, so Ranges cuts as for a pool that wide.
type wideSerial int

func (w wideSerial) For(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func (w wideSerial) Workers() int { return int(w) }

// FuzzRangeCopies drives the copy planner — which range lands which
// extents, and in how many copies — over random plans: extent layouts (a
// fixed length, gaps of zero, one or two lengths between them), job orders
// that share and repeat extents across sources and within one, executor
// widths that cut the jobs into ranges differently, and window sizes.
// Every window's copies must be runs of whole extents adjacent in the file,
// land each priced extent exactly once, and deliver exactly the bytes a
// ReadAt per extent reads.
func FuzzRangeCopies(f *testing.F) {
	store, err := pfs.NewStore(f.TempDir(), pfs.LustreModel())
	if err != nil {
		f.Fatal(err)
	}
	var files []*pfs.File
	for i := 0; i < 3; i++ {
		content := make([]byte, 4<<20)
		rand.New(rand.NewSource(int64(i + 1))).Read(content)
		name := fmt.Sprintf("f%d", i)
		w, err := store.Create(name)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := w.Write(content); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		file, err := store.Open(name)
		if err != nil {
			f.Fatal(err)
		}
		defer file.Close()
		files = append(files, file)
	}
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add(bytes.Repeat([]byte{0}, 40))
	f.Add([]byte("shared extents cross range cuts in the pack"))
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := int(in[0])
			in = in[1:]
			return b
		}
		length := []int{4 << 10, 8 << 10, 16 << 10, 20000}[next()%4]
		sources := 1 + next()%3
		width := 1 + next()%8
		slice := []int{1 << 30, 3 * length, 64 << 10}[next()%3]
		// Each source's extents: one length, gaps of 0, 1 or 2 lengths.
		var extents [][]int64
		for s := 0; s < sources; s++ {
			var offs []int64
			off := int64(next()%3) * int64(length)
			for k := 0; k < 48; k++ {
				offs = append(offs, off)
				off += int64(length) * int64(1+next()%3)
			}
			extents = append(extents, offs)
		}
		plan := NewPlan(files[:sources]...)
		for jobs := 4 + next()%60; jobs > 0; jobs-- {
			a, b := next()%sources, next()%sources
			plan.Add(len(plan.Jobs), a, extents[a][next()%48], b, extents[b][next()%48], length)
		}
		log := &landLog{inner: aio.NewCoalescing(aio.NewUring(64), 0)}
		log.record(t)
		cfg := Config{Arena: aio.NewArena(0), Backend: log, Exec: wideSerial(width), Device: device.GPUModel(), SliceBytes: slice}
		_, err := Run(context.Background(), plan, cfg, func(_ int, j Job, a, b []byte) (time.Duration, error) {
			for _, side := range []struct {
				ref Ref
				got []byte
			}{{j.A, a}, {j.B, b}} {
				e := plan.Sources[side.ref.Src].Extents[side.ref.Ext]
				want := make([]byte, e.Len)
				if _, _, err := files[side.ref.Src].ReadAt(want, e.Off); err != nil {
					return 0, err
				}
				if !bytes.Equal(side.got, want) {
					return 0, fmt.Errorf("job %d: side of source %d at %d is not what ReadAt reads", j.Index, side.ref.Src, e.Off)
				}
			}
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		checkLandings(t, log)
	})
}
