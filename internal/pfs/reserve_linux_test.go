package pfs

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestReserveKeepsTheSize: Reserve allocates the blocks of the bytes to
// come without moving the end of file, and costs nothing; a write that
// lands less than was reserved publishes a file as long as what landed.
func TestReserveKeepsTheSize(t *testing.T) {
	s := newTestStore(t)
	probe, err := os.Create(filepath.Join(s.Root(), "probe"))
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	if err := syscall.Fallocate(int(probe.Fd()), fallocKeepSize, 0, 4096); err != nil {
		t.Skipf("the file system does not reserve: %v", err)
	}
	const reserved = 1 << 20
	w, err := s.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	w.Reserve(reserved)
	if (w.Cost() != Cost{}) {
		t.Fatalf("a reservation cost %+v", w.Cost())
	}
	if _, err := w.WriteAt([]byte("landed"), 0); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(filepath.Join(s.Root(), "f"))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(len("landed")) {
		t.Fatalf("published %d bytes, want the 6 that landed", st.Size())
	}
	if blocks := st.Sys().(*syscall.Stat_t).Blocks * 512; blocks < reserved {
		t.Fatalf("%d bytes of blocks allocated, want the %d reserved", blocks, reserved)
	}
}
