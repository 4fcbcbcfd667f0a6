//go:build !amd64 || race

package errbound

import "repro/internal/murmur3"

// pairF32 is false: on every other architecture, and under -race, whose
// detector does not see assembly reads, HashChunks hashes one chunk at a
// time.
var pairF32 = false

// hashPair is two hashChunkF32 calls; HashChunks does not call it here.
func (h *Hasher) hashPair(c *[2]murmur3.Chain, a, b []byte) {
	h.hashChunkF32(&c[0], a)
	h.hashChunkF32(&c[1], b)
}
