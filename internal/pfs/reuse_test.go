//go:build unix

package pfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// sink keeps a read of a view from being optimized away.
var sink byte

// openFDs counts the test process's open descriptors, skipping the test
// where /proc/self/fd is absent.
func openFDs(t *testing.T) int {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no descriptor count here: %v", err)
	}
	return len(fds)
}

// TestOpenReusesTheEntryDescriptor: once a File has landed a file, every
// later Open of the unchanged file reads through the descriptor the
// table's entry holds — no open(2), one descriptor and one mmap for 100
// rounds of Open, Land and Close.
func TestOpenReusesTheEntryDescriptor(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	data := bytes.Repeat([]byte("reuse me"), 2048)
	writeTestFile(t, s, "a", data)
	f := openT(t, s, "a")
	landView(t, f, 0, len(data))
	f.Close()
	m := entryOf(t, s, "a")
	if m == nil || m.f == nil {
		t.Fatal("no idle entry holding a descriptor after the first Close")
	}
	fds := openFDs(t)
	_, _, mmaps0 := tableState()
	for i := 0; i < 100; i++ {
		f := openT(t, s, "a")
		if f.f != m.f {
			t.Fatalf("round %d: Open opened the file; want the entry's descriptor", i)
		}
		if got := landView(t, f, int64(i), 64); !bytes.Equal(got, data[i:i+64]) {
			t.Fatalf("round %d: the view holds the wrong bytes", i)
		}
		if n := openFDs(t); n != fds {
			t.Fatalf("round %d: %d descriptors open, %d before", i, n, fds)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, mmaps := tableState(); mmaps != mmaps0 || openFDs(t) != fds || s.OpenHandles() != 0 {
		t.Errorf("%d mmaps, %d descriptors (%d before), %d handles after 100 rounds; want no mmap, no descriptor, no handle",
			mmaps-mmaps0, openFDs(t), fds, s.OpenHandles())
	}
	dropIdle(t)
	if n := openFDs(t); n != fds-1 {
		t.Errorf("%d descriptors after the entry unmapped, want %d", n, fds-1)
	}
}

// TestReplacedFileIsReopened: after Create replaces the file, the next
// Open reads the new bytes; the replaced file's descriptor stays open for
// the File still viewing it and closes with its last view.
func TestReplacedFileIsReopened(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	writeTestFile(t, s, "a", bytes.Repeat([]byte{1}, 8192))
	g := openT(t, s, "a")
	old := landView(t, g, 0, 8192)
	held := g.m.Load()
	fds := openFDs(t)

	writeTestFile(t, s, "a", bytes.Repeat([]byte{2}, 4096))
	f := openT(t, s, "a")
	if f.f == held.f {
		t.Fatal("the Open after a replace read through the replaced file's descriptor")
	}
	if v := landView(t, f, 0, 4096); v[0] != 2 || f.Size() != 4096 {
		t.Fatalf("the Open after a replace reads byte %d of %d bytes; want 2 of 4096", v[0], f.Size())
	}
	f.Close()
	if old[8191] != 1 || held.f == nil {
		t.Fatal("the replaced file's view or descriptor went while a File holds it")
	}
	if n := openFDs(t); n != fds+1 {
		t.Fatalf("%d descriptors with the old file held and the new one idle, want %d", n, fds+1)
	}
	g.Close()
	if held.f != nil || held.data != nil {
		t.Fatal("the replaced file's entry outlived its last view")
	}
	if n := openFDs(t); n != fds {
		t.Errorf("%d descriptors after the last view of the replaced file, want %d", n, fds)
	}
	dropIdle(t)
}

// TestOpenSeesInPlaceSizeChanges: a file appended to or truncated in
// place behind the store is opened at its new size, not through the old
// entry; the old File's views keep the Guard/Holds contract.
func TestOpenSeesInPlaceSizeChanges(t *testing.T) {
	dropIdle(t)
	page := os.Getpagesize()
	s := newTestStore(t)
	writeTestFile(t, s, "a", bytes.Repeat([]byte{1}, 2*page))
	f := openT(t, s, "a")
	defer f.Close()
	view := landView(t, f, 0, 2*page)
	held := f.m.Load()

	w, err := os.OpenFile(filepath.Join(s.Root(), "a"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte{2}, page)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	g := openT(t, s, "a")
	if g.Size() != int64(3*page) || g.m.Load() == held {
		t.Fatalf("Open after an append: size %d, on the old entry %v; want %d on a new one", g.Size(), g.m.Load() == held, 3*page)
	}
	if v := landView(t, g, int64(2*page), page); v[0] != 2 {
		t.Fatal("the appended bytes do not show")
	}
	g.Close()
	if err := f.Holds(0, len(view)); err != nil || Guard(func() { sink += view[2*page-1] }, f) != -1 {
		t.Fatalf("the old view after an append: Holds %v; want it to hold", err)
	}

	if err := os.Truncate(filepath.Join(s.Root(), "a"), int64(page)); err != nil {
		t.Fatal(err)
	}
	h := openT(t, s, "a")
	defer h.Close()
	if h.Size() != int64(page) {
		t.Fatalf("Open after a truncation: size %d, want %d", h.Size(), page)
	}
	if err := f.Holds(0, len(view)); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("the old view after a truncation: Holds %v; want io.ErrUnexpectedEOF", err)
	}
	if got := Guard(func() { sink += view[2*page-1] }, f); got != 0 {
		t.Fatalf("a read of the old view past the cut: Guard %d; want the fault recovered", got)
	}
	dropIdle(t)
}

// TestOpenAfterRemoveBehindTheStore: a file removed without the store is
// gone for Open even while an idle entry still pins its inode.
func TestOpenAfterRemoveBehindTheStore(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	writeTestFile(t, s, "a", bytes.Repeat([]byte{1}, 4096))
	f := openT(t, s, "a")
	landView(t, f, 0, 4096)
	m := f.m.Load()
	f.Close()
	if err := os.Remove(filepath.Join(s.Root(), "a")); err != nil {
		t.Fatal(err)
	}
	if g, err := s.Open("a"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Open of a removed file: %v, %v; want fs.ErrNotExist", g, err)
	}
	if entries, idle, _ := tableState(); entries != 1 || idle != 1 || m.data == nil {
		t.Fatalf("%d entries, %d idle: the test no longer has an idle entry pinning the removed file", entries, idle)
	}
	if s.OpenHandles() != 0 {
		t.Errorf("%d handles after a failed Open", s.OpenHandles())
	}
	dropIdle(t)
}

// TestDescriptorsBoundedByIdleEntries: opening, landing and closing 100
// distinct files keeps at most maxIdleMappings of their descriptors open,
// and none once the idle entries go.
func TestDescriptorsBoundedByIdleEntries(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	fds := openFDs(t)
	for i := 0; i < 100; i++ {
		name := fmt.Sprintf("f%d", i)
		writeTestFile(t, s, name, []byte{byte(i)})
		f := openT(t, s, name)
		landView(t, f, 0, 1)
		f.Close()
	}
	if n := openFDs(t); n-fds > maxIdleMappings {
		t.Errorf("%d descriptors more after 100 files, bound %d", n-fds, maxIdleMappings)
	}
	dropIdle(t)
	if n := openFDs(t); n != fds {
		t.Errorf("%d descriptors with no entry left, %d before", n, fds)
	}
}
