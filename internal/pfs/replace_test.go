//go:build unix

package pfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// tornAt keeps the first keep bytes of a write to name and fails it, and
// fails name's Close when closeErr is set.
type tornAt struct {
	faultNop
	name     string
	keep     int
	closeErr error
}

var errTorn = errors.New("injected")

func (h tornAt) BeforeWrite(name string, _ int64, n int) (int, error) {
	if name == h.name && h.keep < n {
		return h.keep, errTorn
	}
	return 0, nil
}

func (h tornAt) BeforeClose(name string) error {
	if name == h.name {
		return h.closeErr
	}
	return nil
}

// contents returns the named file's bytes, failing the test when it cannot
// be read.
func contents(t *testing.T, s *Store, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(s.Root(), name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCreateReplacesByRename: a Create writes a temporary that List never
// returns and that Close renames over the name, so a writer never closed —
// a process killed mid-write — leaves the old bytes readable, and of two
// writers on one name the last Close wins whole.
func TestCreateReplacesByRename(t *testing.T) {
	s := newTestStore(t)
	writeTestFile(t, s, "d/a", []byte("old bytes"))
	w, err := s.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("new")); err != nil {
		t.Fatal(err)
	}
	for _, prefix := range []string{"", "d/", "d/a"} {
		if names, err := s.List(prefix); err != nil || len(names) != 1 || names[0] != "d/a" {
			t.Fatalf("List(%q) = %v, %v; want only d/a", prefix, names, err)
		}
	}
	if got := contents(t, s, "d/a"); string(got) != "old bytes" {
		t.Fatalf("mid-write the file holds %q; want the old bytes", got)
	}
	if dir, _ := os.ReadDir(filepath.Join(s.Root(), "d")); len(dir) != 2 {
		t.Fatalf("%d entries mid-write; want the file and one temporary", len(dir))
	}

	other, err := s.Create("d/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.Write([]byte("the other writer")); err != nil {
		t.Fatal(err)
	}
	if err := other.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := contents(t, s, "d/a"); string(got) != "new" {
		t.Fatalf("after both Closes the file holds %q; want the last Close's bytes", got)
	}
	if dir, _ := os.ReadDir(filepath.Join(s.Root(), "d")); len(dir) != 1 {
		t.Fatalf("%d entries after both Closes; want the file alone", len(dir))
	}
}

// TestCloseAfterFailurePublishes: Close renames on every path — after a
// torn write, and when the fault hook fails the close — so the file holds
// exactly the bytes that landed.
func TestCloseAfterFailurePublishes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		keep     int
		closeErr error
		want     string
	}{
		{"torn-write", 3, nil, "pre"},
		{"failed-close", 1 << 20, errTorn, "prefix+rest"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestStore(t)
			writeTestFile(t, s, "f", []byte("old"))
			s.SetFaultHook(tornAt{name: "f", keep: tc.keep, closeErr: tc.closeErr})
			w, err := s.Create("f")
			if err != nil {
				t.Fatal(err)
			}
			_, werr := w.Write([]byte("prefix+rest"))
			if cerr := w.Close(); !errors.Is(werr, errTorn) && !errors.Is(cerr, errTorn) {
				t.Fatalf("write %v, close %v; want the injected failure", werr, cerr)
			}
			if got := contents(t, s, "f"); string(got) != tc.want {
				t.Fatalf("the file holds %q; want %q", got, tc.want)
			}
			if names, _ := s.List(""); len(names) != 1 {
				t.Fatalf("List = %v; want the file alone", names)
			}
		})
	}
}

// TestReplaceRetiresTheOldMapping: a File holding a view keeps the old
// bytes across a replace (the old inode lives on under it), and the old
// inode's idle mapping is unmapped by the Close that replaces it.
func TestReplaceRetiresTheOldMapping(t *testing.T) {
	dropIdle(t)
	s := newTestStore(t)
	writeTestFile(t, s, "a", bytes.Repeat([]byte{1}, 8192))
	held := openT(t, s, "a")
	defer held.Close()
	view := landView(t, held, 0, 8192)
	f := openT(t, s, "a")
	landView(t, f, 4096, 4096)
	old := f.m.Load()

	w, err := s.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(bytes.Repeat([]byte{2}, 8192)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if view[0] != 1 || view[8191] != 1 {
		t.Fatal("a held view shows the replacing bytes")
	}
	held.Close()
	f.Close()
	if old.data != nil {
		t.Fatal("the replaced inode's mapping stayed mapped after its last Close")
	}

	g := openT(t, s, "a")
	landView(t, g, 0, 8192)
	idle := g.m.Load()
	g.Close()
	writeTestFile(t, s, "a", bytes.Repeat([]byte{3}, 8192))
	if idle.data != nil {
		t.Fatal("the Close that replaced the file left its idle mapping mapped")
	}
	if entries, _, _ := tableState(); entries != 0 {
		t.Fatalf("%d entries after the replace; want none", entries)
	}
}

// TestWritersMakeTheirDirectories: Create and Append make a name's missing
// directories on their first open and reuse them after; a directory that
// cannot be made, because a file holds its name, fails the open.
func TestWritersMakeTheirDirectories(t *testing.T) {
	s, err := NewStore(t.TempDir(), LustreModel())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a/b/created", "a/b/again", "c/d/log"} {
		open := s.Create
		if filepath.Base(name) == "log" {
			open = s.Append
		}
		w, err := open(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := w.Write([]byte(name)); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if got := contents(t, s, name); string(got) != name {
			t.Fatalf("%s holds %q", name, got)
		}
	}
	for _, open := range []func(string) (*Writer, error){s.Create, s.Append} {
		if w, err := open("a/b/created/under-a-file"); err == nil {
			w.Close()
			t.Fatal("a writer opened under a regular file")
		}
	}
}

// writeLog records each write the hook is asked about and tears the one at
// tearOff, keeping keep bytes.
type writeLog struct {
	faultNop
	asked   *[][2]int64 // off, n
	tearOff int64
	keep    int
}

func (h writeLog) BeforeWrite(_ string, off int64, n int) (int, error) {
	*h.asked = append(*h.asked, [2]int64{off, int64(n)})
	if off == h.tearOff {
		return h.keep, errTorn
	}
	return 0, nil
}

// TestWriteAtThroughTheHook: WriteAt asks the fault hook at the offset it
// writes, is torn like Write, costs one operation per call for what
// landed, and leaves Write's position alone.
func TestWriteAtThroughTheHook(t *testing.T) {
	s := newTestStore(t)
	var asked [][2]int64
	s.SetFaultHook(writeLog{asked: &asked, tearOff: 0, keep: 3})
	w, err := s.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := w.WriteAt([]byte("world"), 5); n != 5 || err != nil {
		t.Fatalf("WriteAt at 5: %d, %v", n, err)
	}
	if n, err := w.WriteAt([]byte("hello"), 0); n != 3 || !errors.Is(err, errTorn) {
		t.Fatalf("torn WriteAt at 0: %d, %v; want 3 and the hook's error", n, err)
	}
	if want := (Cost{Ops: 2, Bytes: 8}); w.Cost() != want {
		t.Fatalf("cost %+v, want %+v", w.Cost(), want)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := [][2]int64{{5, 5}, {0, 5}}; !slices.Equal(asked, want) {
		t.Fatalf("the hook was asked %v, want %v", asked, want)
	}
	if got := contents(t, s, "f"); !bytes.Equal(got, []byte("hel\x00\x00world")) {
		t.Fatalf("file holds %q", got)
	}

	// A Write after a WriteAt starts where Write left off: at 0.
	asked = nil
	s.SetFaultHook(writeLog{asked: &asked, tearOff: -1})
	w, err = s.Create("g")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.WriteAt([]byte("tail"), 4); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("head")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if want := [][2]int64{{4, 4}, {0, 4}}; !slices.Equal(asked, want) {
		t.Fatalf("the hook was asked %v, want %v", asked, want)
	}
	if got := contents(t, s, "g"); string(got) != "headtail" {
		t.Fatalf("file holds %q", got)
	}
}
