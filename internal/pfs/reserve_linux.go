//go:build linux

package pfs

import "syscall"

// fallocKeepSize is FALLOC_FL_KEEP_SIZE.
const fallocKeepSize = 0x1

// Reserve allocates the blocks of the file's first n bytes before they are
// written (fallocate, keeping the size): a write that never lands leaves
// the file as long as what did, with reserved blocks past its end. Best
// effort, and free on the virtual clock.
func (w *Writer) Reserve(n int64) {
	if rc, err := w.f.SyscallConn(); err == nil && n > 0 {
		_ = rc.Control(func(fd uintptr) { _ = syscall.Fallocate(int(fd), fallocKeepSize, 0, n) })
	}
}
