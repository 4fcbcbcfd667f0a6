//go:build !amd64 || race

package errbound

// acceptF32 is the Go loop on every other architecture, and under -race,
// whose detector does not see assembly reads.
func acceptF32(acc int32, a, b []byte, off int) int { return acceptF32Go(acc, a, b, off) }
