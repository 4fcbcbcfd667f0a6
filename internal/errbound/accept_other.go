//go:build !amd64 || race

package errbound

// flagF32 is the Go loop on every other architecture, and under -race,
// whose detector does not see assembly reads.
func flagF32(acc int32, a, b []byte, off int, l []uint64) (int, int) {
	return flagF32Go(acc, a, b, off, l)
}
