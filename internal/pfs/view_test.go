//go:build unix

package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// tableState is what the mapping table holds: its entries, its idle list
// and the mmap calls made so far.
func tableState() (entries, idle int, mmaps int64) {
	table.Lock()
	defer table.Unlock()
	return len(table.byKey), table.idle, table.mmaps
}

// dropIdle unmaps every idle entry, so a test starts from a table holding
// only what open Files reference.
func dropIdle(t *testing.T) {
	t.Helper()
	table.Lock()
	for _, m := range table.byKey {
		if m.refs == 0 {
			m.retire()
		}
	}
	table.Unlock()
}

// entryOf returns the table's entry for the named file, nil when it has
// none.
func entryOf(t *testing.T, s *Store, name string) *mapping {
	t.Helper()
	st, err := os.Stat(filepath.Join(s.Root(), name))
	if err != nil {
		t.Fatal(err)
	}
	table.Lock()
	defer table.Unlock()
	return table.byKey[keyOf(st)]
}

// viewed reports whether b lies in f's mapping.
func viewed(f *File, b []byte) bool {
	m := f.m.Load()
	if m == nil || len(b) == 0 {
		return false
	}
	off := uintptr(unsafe.Pointer(unsafe.SliceData(b))) - uintptr(unsafe.Pointer(unsafe.SliceData(m.data)))
	return off < uintptr(len(m.data)) // an address below the mapping wraps past its length
}

// landView lands n bytes at off of f and fails unless they are a view.
func landView(t *testing.T, f *File, off int64, n int) []byte {
	t.Helper()
	got, err := f.Land(off, n)
	if err != nil {
		t.Fatal(err)
	}
	if !viewed(f, got) {
		t.Fatalf("Land of %s@%d copied; want a view", f.Name(), off)
	}
	return got
}

func openT(t *testing.T, s *Store, name string) *File {
	t.Helper()
	f, err := s.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestLandViewsOneMappingPerInode: N opens of one file share one mmap,
// kept idle between them; the views show the file's bytes, and Close
// releases the reference without moving OpenHandles or the goroutine
// count.
func TestLandViewsOneMappingPerInode(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	data := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	writeTestFile(t, s, "a", data)
	base := runtime.NumGoroutine()
	_, _, mmaps0 := tableState()
	for i := 0; i < 8; i++ {
		f := openT(t, s, "a")
		if got := landView(t, f, 4096+int64(i), 100); !bytes.Equal(got, data[4096+i:4196+i]) {
			t.Fatalf("open %d: view holds the wrong bytes", i)
		}
		if got := landView(t, f, 0, 16); !bytes.Equal(got, data[:16]) {
			t.Fatalf("open %d: second view holds the wrong bytes", i)
		}
		if s.OpenHandles() != 1 {
			t.Fatalf("%d open handles with one file open", s.OpenHandles())
		}
		if m := entryOf(t, s, "a"); m == nil || m.refs != 1 {
			t.Fatalf("open %d: entry %+v, want one reference", i, m)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if m := entryOf(t, s, "a"); m == nil || m.refs != 0 {
			t.Fatalf("closed: entry %+v, want an idle entry", m)
		}
	}
	if _, _, mmaps := tableState(); mmaps-mmaps0 != 1 {
		t.Errorf("%d mmaps for 8 opens of one inode, want 1", mmaps-mmaps0)
	}
	if s.OpenHandles() != 0 || runtime.NumGoroutine() != base {
		t.Errorf("%d handles and %d goroutines after, %d before", s.OpenHandles(), runtime.NumGoroutine(), base)
	}

	// Two Files of the inode open at once hold one entry twice.
	f, g := openT(t, s, "a"), openT(t, s, "a")
	landView(t, f, 0, 8)
	landView(t, g, 0, 8)
	if m := entryOf(t, s, "a"); m == nil || m.refs != 2 {
		t.Fatalf("entry %+v, want two references", m)
	}
	f.Close()
	g.Close()
	if _, _, mmaps := tableState(); mmaps-mmaps0 != 1 {
		t.Errorf("%d mmaps, want 1", mmaps-mmaps0)
	}
}

// TestLandCopiesWhatItCannotView: a read past the end the file was opened
// with, and every read while a flip is pending on the file, land by Copy
// into a buffer of their own — the flip never reaches the page cache; once
// the flip is priced away the File lands views again.
func TestLandCopiesWhatItCannotView(t *testing.T) {
	s := newTestStore(t)
	data := bytes.Repeat([]byte{0x5a}, 3*4096)
	writeTestFile(t, s, "a", data)
	f := openT(t, s, "a")
	defer f.Close()

	if _, err := f.Land(int64(len(data))-5, 10); err == nil {
		t.Error("a read past the end landed")
	}
	s.SetFaultHook(flipAt{off: 4100, mask: 0x01})
	if _, err := f.Price(4096, 4096); err != nil {
		t.Fatal(err)
	}
	s.SetFaultHook(nil)
	got, err := f.Land(4096, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if viewed(f, got) || got[4] != 0x5b {
		t.Fatalf("flipped bytes: landed as a view or without the flip (byte %#x)", got[4])
	}
	if got, err := f.Land(0, 4096); err != nil || viewed(f, got) {
		t.Fatalf("a read beside a pending flip: %v, or landed as a view", err)
	}
	if _, err := f.Price(4096, 4096); err != nil { // no hook: the flip is priced away
		t.Fatal(err)
	}
	if v := landView(t, f, 4096, 4096); v[4] != 0x5a {
		t.Fatal("the flip reached the view")
	}
}

// flipAt flips one byte of every read priced over it.
type flipAt struct {
	faultNop
	off  int64
	mask byte
}

func (h flipAt) AfterRead(_ string, off int64, n int) ([]Flip, Cost) {
	if h.off >= off && h.off < off+int64(n) {
		return []Flip{{Off: h.off, Mask: h.mask}}, Cost{}
	}
	return nil, Cost{}
}

// faultNop is a FaultHook that decides nothing.
type faultNop struct{}

func (faultNop) BeforeRead(string, int64, int) error         { return nil }
func (faultNop) AfterRead(string, int64, int) ([]Flip, Cost) { return nil, Cost{} }
func (faultNop) BeforeWrite(string, int64, int) (int, error) { return 0, nil }
func (faultNop) BeforeClose(string) error                    { return nil }

// TestRewriteRetiresTheMapping: Create retires the file's entry at once,
// Append too, and an Open that finds another size than the entry's maps
// afresh; a File holding the retired entry keeps its views until Close.
func TestRewriteRetiresTheMapping(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	writeTestFile(t, s, "a", bytes.Repeat([]byte{1}, 8192))
	f := openT(t, s, "a")
	landView(t, f, 0, 8192)
	f.Close()
	if entryOf(t, s, "a") == nil {
		t.Fatal("no idle entry after Close")
	}

	// O_TRUNC rewrite to a new size: the idle entry goes at Create.
	_, _, mmaps0 := tableState()
	writeTestFile(t, s, "a", bytes.Repeat([]byte{2}, 12288))
	if entryOf(t, s, "a") != nil {
		t.Fatal("Create left the old entry in the table")
	}
	f = openT(t, s, "a")
	if v := landView(t, f, 8192, 4096); v[0] != 2 {
		t.Fatal("the remapped view shows old bytes")
	}
	held := f.m.Load()
	if _, _, mmaps := tableState(); mmaps-mmaps0 != 1 {
		t.Fatalf("%d mmaps after a rewrite, want 1", mmaps-mmaps0)
	}

	// Append while f holds the entry: retired, still mapped for f.
	w, err := s.Append("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte{3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if entryOf(t, s, "a") != nil || held.data == nil {
		t.Fatalf("Append: entry still in the table %v, mapped %v; want retired and mapped", entryOf(t, s, "a") != nil, held.data != nil)
	}
	if v := landView(t, f, 0, 4); v[0] != 2 {
		t.Fatal("the held view lost its bytes")
	}
	f.Close()
	if held.data != nil {
		t.Fatal("a retired entry stayed mapped after its last Close")
	}

	// An Open that sees another size than the entry's retires it.
	g := openT(t, s, "a")
	landView(t, g, 0, 4)
	old := g.m.Load()
	g.Close()
	if err := os.Truncate(filepath.Join(s.Root(), "a"), 4096); err != nil {
		t.Fatal(err)
	}
	g = openT(t, s, "a")
	defer g.Close()
	if old.data != nil || entryOf(t, s, "a") != nil {
		t.Fatal("an Open at a new size left the idle entry mapped")
	}
	if landView(t, g, 0, 4096); g.m.Load() == old {
		t.Fatal("the Open at a new size reused the old entry")
	}
}

// TestRemoveUnmaps: Store.Remove unmaps an idle entry at once; an entry a
// File holds is unmapped at that File's Close.
func TestRemoveUnmaps(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	writeTestFile(t, s, "idle", bytes.Repeat([]byte{1}, 4096))
	writeTestFile(t, s, "held", bytes.Repeat([]byte{2}, 4096))
	f := openT(t, s, "idle")
	landView(t, f, 0, 4096)
	idle := f.m.Load()
	f.Close()
	if err := s.Remove("idle"); err != nil {
		t.Fatal(err)
	}
	if idle.data != nil {
		t.Fatal("Remove left an idle mapping pinning the file")
	}

	g := openT(t, s, "held")
	landView(t, g, 0, 4096)
	held := g.m.Load()
	if err := s.Remove("held"); err != nil {
		t.Fatal(err)
	}
	if held.data == nil {
		t.Fatal("Remove unmapped an entry a File holds")
	}
	if v := landView(t, g, 0, 4); v[0] != 2 {
		t.Fatal("the held view lost its bytes")
	}
	g.Close()
	if held.data != nil {
		t.Fatal("the removed file's entry stayed mapped after its last Close")
	}
	if entries, idleN, _ := tableState(); entries != 0 || idleN != 0 {
		t.Errorf("%d entries, %d idle after removing both files", entries, idleN)
	}
}

// TestRemovedBehindTheStoreIsSwept: idle entries whose files were removed
// or replaced without the store are unmapped by the next new mapping, so
// they keep no removed file allocated; an idle entry whose file is still
// there stays.
func TestRemovedBehindTheStoreIsSwept(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	names := []string{"kept", "removed", "replaced", "next"}
	for _, name := range names {
		writeTestFile(t, s, name, bytes.Repeat([]byte(name[:1]), 4096))
	}
	idle := map[string]*mapping{}
	for _, name := range names[:3] {
		f := openT(t, s, name)
		landView(t, f, 0, 4096)
		idle[name] = f.m.Load()
		f.Close()
	}
	if err := os.Remove(filepath.Join(s.Root(), "removed")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(s.Root(), "replaced")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(s.Root(), "replaced"), []byte("new"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := openT(t, s, "next")
	landView(t, f, 0, 4096)
	f.Close()
	if idle["removed"].data != nil || idle["replaced"].data != nil {
		t.Error("an idle mapping of a file removed behind the store outlived the next mapping")
	}
	if idle["kept"].data == nil || entryOf(t, s, "kept") != idle["kept"] {
		t.Error("the sweep retired the idle entry of a file that is still there")
	}
	dropIdle(t)
}

// TestIdleMappingsBounded: idle entries are evicted least recently
// released first past maxIdleMappings and past maxIdleBytes; an entry a
// File still holds survives both.
func TestIdleMappingsBounded(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	held := "held"
	writeTestFile(t, s, held, []byte{9})
	h := openT(t, s, held)
	defer h.Close()
	landView(t, h, 0, 1)

	// By count: one more idle file than the bound evicts the first.
	for i := 0; i <= maxIdleMappings; i++ {
		name := fmt.Sprintf("n%d", i)
		writeTestFile(t, s, name, []byte{byte(i)})
		f := openT(t, s, name)
		landView(t, f, 0, 1)
		f.Close()
	}
	if entryOf(t, s, "n0") != nil || entryOf(t, s, "n1") == nil {
		t.Error("count bound: the least recently released entry was not the one evicted")
	}
	if entries, idle, _ := tableState(); idle != maxIdleMappings || entries != maxIdleMappings+1 {
		t.Errorf("%d entries, %d idle; want %d idle and the held one", entries, idle, maxIdleMappings)
	}
	if m := entryOf(t, s, held); m == nil || m.data == nil {
		t.Error("the held entry was evicted")
	}

	// By bytes: sparse files of a third of the budget each; the fourth
	// released evicts the oldest of them and every small one before it.
	dropIdle(t)
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("big%d", i)
		writeTestFile(t, s, name, nil)
		if err := os.Truncate(filepath.Join(s.Root(), name), maxIdleBytes/3); err != nil {
			t.Fatal(err)
		}
		f := openT(t, s, name)
		landView(t, f, maxIdleBytes/3-1, 1)
		f.Close()
	}
	if entryOf(t, s, "big0") != nil || entryOf(t, s, "big1") == nil || entryOf(t, s, "big3") == nil {
		t.Error("byte bound: want big0 evicted and big1..big3 idle")
	}
	table.Lock()
	idleBytes := table.idleBytes
	table.Unlock()
	if idleBytes > maxIdleBytes {
		t.Errorf("%d idle bytes, bound %d", idleBytes, maxIdleBytes)
	}
	if m := entryOf(t, s, held); m == nil || m.data == nil {
		t.Error("the held entry was evicted")
	}
	dropIdle(t)
}

// TestSizeNowSeesTruncation: SizeNow is the size now, Size the size at
// Open, and SizeNow does not allocate.
func TestSizeNowSeesTruncation(t *testing.T) {
	s := newTestStore(t)
	writeTestFile(t, s, "a", make([]byte, 10000))
	f := openT(t, s, "a")
	defer f.Close()
	if err := os.Truncate(filepath.Join(s.Root(), "a"), 5000); err != nil {
		t.Fatal(err)
	}
	if n, err := f.SizeNow(); err != nil || n != 5000 || f.Size() != 10000 {
		t.Fatalf("SizeNow %d (%v), Size %d; want 5000 and 10000", n, err, f.Size())
	}
	if a := testing.AllocsPerRun(100, func() { f.SizeNow() }); a != 0 {
		t.Errorf("SizeNow allocates %.1f times", a)
	}
}

// TestGuardAndHolds is the fault contract of a view over a real file: a read
// past a whole-page cut is recovered, and Holds names the file with an
// error wrapping io.ErrUnexpectedEOF; a mid-page cut reads zeros that only
// Holds catches; a panic that is no cut — a plain panic, a write to a view
// of bytes the file holds — is re-raised; and the clean path allocates
// nothing.
func TestGuardAndHolds(t *testing.T) {
	page := os.Getpagesize()
	s := newTestStore(t)
	writeTestFile(t, s, "a", bytes.Repeat([]byte{7}, 4*page))
	f := openT(t, s, "a")
	defer f.Close()
	view := landView(t, f, 0, 4*page)
	cut := func(size int) {
		t.Helper()
		if err := os.Truncate(filepath.Join(s.Root(), "a"), int64(size)); err != nil {
			t.Fatal(err)
		}
	}
	short := func(want string) {
		t.Helper()
		if err := f.Holds(0, len(view)); !errors.Is(err, io.ErrUnexpectedEOF) || !strings.Contains(err.Error(), want) {
			t.Fatalf("Holds after the cut: %v; want %s short", err, want)
		}
	}
	var sum byte
	read := func(i int) func() { return func() { sum += view[i] } }

	if got := Guard(read(3*page), nil, f); got != -1 || sum != 7 || f.Holds(0, len(view)) != nil {
		t.Fatalf("clean read: Guard %d, read %d, Holds %v; want -1, 7, nil", got, sum, f.Holds(0, len(view)))
	}
	if a := testing.AllocsPerRun(100, func() { Guard(func() { sum += view[page] }, f); f.Holds(0, len(view)) }); a != 0 {
		t.Errorf("a clean Guard and Holds allocate %.1f times", a)
	}

	cut(3*page + 100)
	if sum = 0; Guard(read(4*page-1), f) != -1 || sum != 0 {
		t.Fatalf("past a mid-page cut: read %d; want zeros and no fault", sum)
	}
	short("a@0+" + strconv.Itoa(4*page) + ": the file now ends at " + strconv.Itoa(3*page+100))

	cut(page)
	if got := Guard(read(2*page), nil, f); got != 1 {
		t.Fatalf("past a whole-page cut: Guard %d; want the fault recovered in file 1", got)
	}
	short("a@0+")

	for name, fn := range map[string]func(){
		"a plain panic":     func() { panic("boom") },
		"a write to a view": func() { view[0] ^= 1 },
	} {
		var p any
		func() {
			defer func() { p = recover() }()
			Guard(fn, f)
		}()
		if p == nil {
			t.Errorf("%s in a named file came back from Guard; want it re-raised", name)
		}
	}
}

// TestTableUnderConcurrentOpens: Files of a few inodes opened, landed from
// two goroutines at once (the first Land of a File races its second) and
// closed on many goroutines leave no reference behind; run it under -race.
func TestTableUnderConcurrentOpens(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	names := []string{"a", "b", "c"}
	for i, name := range names {
		writeTestFile(t, s, name, bytes.Repeat([]byte{byte(i + 1)}, 8192))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(names)
				f, err := s.Open(names[k])
				if err != nil {
					t.Error(err)
					return
				}
				var lands sync.WaitGroup
				for off := int64(0); off < 8192; off += 4096 {
					lands.Add(1)
					go func(off int64) {
						defer lands.Done()
						if v, err := f.Land(off, 4096); err != nil || v[0] != byte(k+1) {
							t.Errorf("%s@%d: %v", names[k], off, err)
						}
					}(off)
				}
				lands.Wait()
				if err := f.Close(); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	wg.Wait()
	if entries, idle, _ := tableState(); entries != len(names) || idle != len(names) || s.OpenHandles() != 0 {
		t.Errorf("%d entries, %d idle, %d handles; want every entry idle and no handle", entries, idle, s.OpenHandles())
	}
}
