//go:build amd64 && !race

package errbound

import "repro/internal/murmur3"

// pairF32 selects the pair kernel for HashChunks. Its floor is ROUNDPD, an
// SSE4.1 instruction the amd64 baseline lacks, so the CPU is asked once;
// without it, and under -race, HashChunks hashes one chunk at a time.
var pairF32 = cpuidECX1()&(1<<19) != 0

// cpuidECX1 returns ECX of CPUID leaf 1; bit 19 is SSE4.1.
func cpuidECX1() uint32

// hashPairF32 is hashChunkF32 on two chunks at once (hash_amd64.s): from off
// (a multiple of 16) it hashes 16 bytes of a and of b per step into st[0]
// and st[1], and returns where it stopped: the end of a's whole steps, or
// the first step whose guard failed. It trusts len(b) ≥ len(a) and cannot be
// preempted: hashPair slices both sides and hands it at most hashSpan bytes.
//
//go:noescape
func hashPairF32(eps float64, safe uint32, a, b []byte, off int, st *[2]murmur3.Chain) (next int)

// hashPair hashes two float32 chunks of one length into c[0] and c[1]. A
// step whose guard fails, and the tails, go through hashChunkF32 — its cell
// path — one side at a time.
func (h *Hasher) hashPair(c *[2]murmur3.Chain, a, b []byte) {
	end := len(a) &^ 15
	for off := 0; off < end; {
		lim := min(end, off+hashSpan)
		// Sliced here, a short b panics in Go: hashPairF32 trusts its lengths.
		off = hashPairF32(h.eps, h.safe32, a[:lim], b[:lim], off, c)
		if off < lim {
			h.hashChunkF32(&c[0], a[off:off+16])
			h.hashChunkF32(&c[1], b[off:off+16])
			off += 16
		}
	}
	h.hashChunkF32(&c[0], a[end:])
	h.hashChunkF32(&c[1], b[end:])
}
