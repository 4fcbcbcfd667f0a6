//go:build !unix

package pfs

import "os"

// Without mmap there is no mapping table: Land is Copy.

type (
	mapKey  struct{}
	mapping struct{}
)

func keyOf(os.FileInfo) mapKey { return mapKey{} }
func retire(mapKey)            {}
func (f *File) dropView() bool { return false }
func (f *File) adopt() bool    { return false }

// cutAt is false: no address lies in a mapping.
func (f *File) cutAt(uintptr) bool { return false }

// Land returns a copy of the n bytes at off.
func (f *File) Land(off int64, n int) ([]byte, error) { return f.copyOut(off, n) }

// SizeNow returns the file's size now, not at Open.
func (f *File) SizeNow() (int64, error) {
	if f.f == nil {
		return 0, ErrClosed
	}
	st, err := f.f.Stat()
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}
