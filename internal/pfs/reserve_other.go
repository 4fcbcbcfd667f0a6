//go:build !linux

package pfs

// Reserve does nothing without fallocate: the writes allocate as they go.
func (w *Writer) Reserve(n int64) {}
