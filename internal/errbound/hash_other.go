//go:build !amd64 || race

package errbound

import "repro/internal/murmur3"

// pairF32 and wideF32 are false: on every other architecture, and under
// -race, whose detector does not see assembly reads, HashChunks hashes one
// chunk at a time.
var pairF32, wideF32 = false, false

// hashRunsF32 hashes no chunk: there is no kernel to take a run.
func (h *Hasher) hashRunsF32([]murmur3.Digest, []byte, int) int { return 0 }
