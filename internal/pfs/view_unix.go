//go:build unix

package pfs

import (
	"os"
	"sync"
	"syscall"
	"unsafe"
)

// Land views a file through one read-only, shared mapping of the whole
// file, kept in a table per process keyed by (device, inode): an inode
// number cannot be reused while a mapping pins the inode, and MAP_SHARED
// shows the file's current bytes, as pread does. A File takes a reference
// on its first Land and drops it at Close. An entry owns the descriptor it
// was mapped through — the first Land's File hands its own over — and
// closes it when it unmaps; an Open that finds its file's entry at the
// file's size takes a reference at once and reads through that descriptor
// (adopt). An entry nobody references stays mapped and open, idle, for the
// next Open of its file; past maxIdleMappings idle entries or maxIdleBytes
// idle bytes the least recently released goes, and each new mapping first
// retires the idle entries of files removed without the store (sweep). So
// the idle bound is also the bound on descriptors the table keeps open.
const (
	maxIdleMappings = 64
	maxIdleBytes    = 256 << 20
)

type mapKey struct{ dev, ino uint64 }

// mapping is one entry. One no longer in the table is retired — its file
// was rewritten, appended to or removed — and unmapped at its last release.
type mapping struct {
	key  mapKey
	f    *os.File // the descriptor it was mapped through, named where the file was
	data []byte
	refs int
	used uint64 // when it last became idle
}

var table struct {
	sync.Mutex
	byKey            map[mapKey]*mapping
	clock            uint64
	idle             int // entries with no reference, and their bytes
	idleBytes, mmaps int64
}

// noMapping is the entry of a File that cannot be mapped: it lands by Copy.
var noMapping = &mapping{}

func keyOf(fi os.FileInfo) mapKey {
	if st, ok := fi.Sys().(*syscall.Stat_t); ok {
		return mapKey{dev: uint64(st.Dev), ino: uint64(st.Ino)}
	}
	return mapKey{}
}

// retire retires key's entry: a writer is about to change the file or
// remove it, and an idle mapping must not pin its old blocks.
func retire(key mapKey) {
	table.Lock()
	if m := table.byKey[key]; m != nil {
		m.retire()
	}
	table.Unlock()
}

// retire takes the entry out of the table, unmapping it if it is idle.
// Caller holds the table lock.
func (m *mapping) retire() {
	delete(table.byKey, m.key)
	if m.refs == 0 {
		table.idle--
		table.idleBytes -= int64(len(m.data))
		m.unmap()
	}
}

func (m *mapping) unmap() {
	_ = syscall.Munmap(m.data) // the range came from Mmap: nothing to do on failure
	_ = m.f.Close()            // read-only: nothing is lost on failure
	m.data, m.f = nil, nil
}

// ref takes a reference on the entry. Caller holds the table lock.
func (m *mapping) ref() {
	if m.refs == 0 {
		table.idle--
		table.idleBytes -= int64(len(m.data))
	}
	m.refs++
}

// adopt is Open's hit: when the table holds an entry for f's key at f's
// size, f takes a reference on it and reads through its descriptor. An
// entry at another size is retired: the file was appended to or cut in
// place, and an idle mapping must not pin its old blocks.
func (f *File) adopt() bool {
	table.Lock()
	defer table.Unlock()
	m := table.byKey[f.key]
	if m == nil {
		return false
	}
	if int64(len(m.data)) != f.size {
		m.retire()
		return false
	}
	m.ref()
	f.f = m.f
	f.m.Store(m)
	return true
}

// entry returns f's entry, taking a reference — mapping the file on a
// miss — on f's first Land.
func (f *File) entry() *mapping {
	if m := f.m.Load(); m != nil {
		return m
	}
	table.Lock()
	defer table.Unlock()
	if m := f.m.Load(); m != nil {
		return m
	}
	m := table.byKey[f.key]
	switch {
	case m != nil && int64(len(m.data)) == f.size:
		m.ref()
	case f.key == (mapKey{}) || f.size <= 0 || f.size != int64(int(f.size)):
		m = noMapping
	default:
		if m != nil {
			m.retire()
		}
		sweep()
		table.mmaps++
		data, err := syscall.Mmap(int(f.f.Fd()), 0, int(f.size), syscall.PROT_READ, syscall.MAP_SHARED)
		if m = noMapping; err == nil {
			m = &mapping{key: f.key, f: f.f, data: data, refs: 1}
			if table.byKey == nil {
				table.byKey = make(map[mapKey]*mapping)
			}
			table.byKey[f.key] = m
		}
	}
	f.m.Store(m)
	return m
}

// sweep retires each idle entry whose path no longer names its file: a
// file removed or replaced behind the store's back (os.RemoveAll of a
// run's directory) would otherwise stay allocated for as long as its entry
// idles, and the writes that follow run slower beside it. One stat per
// idle entry. Caller holds the table lock.
func sweep() {
	for _, m := range table.byKey {
		if m.refs == 0 {
			if st, err := os.Stat(m.f.Name()); err != nil || keyOf(st) != m.key {
				m.retire()
			}
		}
	}
}

// dropView releases f's reference at Close and reports whether the entry
// holds f's descriptor, which f must then leave open.
func (f *File) dropView() (held bool) {
	m := f.m.Swap(nil)
	if m == nil || m == noMapping {
		return false
	}
	table.Lock()
	defer table.Unlock()
	held = m.f == f.f
	if m.refs--; m.refs > 0 {
		return held
	}
	if table.byKey[m.key] != m {
		m.unmap()
		return held
	}
	table.clock++
	m.used, table.idle, table.idleBytes = table.clock, table.idle+1, table.idleBytes+int64(len(m.data))
	for table.idle > maxIdleMappings || table.idleBytes > maxIdleBytes {
		var old *mapping
		for _, e := range table.byKey {
			if e.refs == 0 && (old == nil || e.used < old.used) {
				old = e
			}
		}
		old.retire()
	}
	return held
}

// Land lands the n bytes at off — a read its Price charged — and returns
// them as a read-only view of the file's mapping, valid until Close, or,
// while flips are pending on the file or where it cannot be mapped, as a
// copy of its own made by Copy: a flip never reaches the page cache. A
// view shows the file as it is when read: bytes the file lost since it was
// opened fault when touched (SIGBUS), or read as zeros to the end of their
// page; a caller reads views under Guard and checks them with Holds after.
func (f *File) Land(off int64, n int) ([]byte, error) {
	if f.f == nil {
		return nil, ErrClosed
	}
	end := off + int64(n)
	if n > 0 && off >= 0 && f.pending.Load() == 0 {
		if m := f.entry(); end <= int64(len(m.data)) {
			return m.data[off:end:end], nil
		}
	}
	return f.copyOut(off, n)
}

// cutAt reports whether addr lies in f's mapping at a byte the file no
// longer holds.
func (f *File) cutAt(addr uintptr) bool {
	m := f.m.Load()
	if m == nil {
		return false
	}
	// An address below the mapping wraps past its length.
	if off := addr - uintptr(unsafe.Pointer(unsafe.SliceData(m.data))); off < uintptr(len(m.data)) {
		size, err := f.SizeNow()
		return err == nil && size <= int64(off)
	}
	return false
}

// SizeNow returns the file's size now, not at Open, without allocating.
func (f *File) SizeNow() (int64, error) {
	if f.f == nil {
		return 0, ErrClosed
	}
	var st syscall.Stat_t
	err := syscall.Fstat(int(f.f.Fd()), &st)
	return st.Size, err
}
