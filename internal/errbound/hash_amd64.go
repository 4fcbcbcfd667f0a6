//go:build amd64 && !race

package errbound

import "repro/internal/murmur3"

// pairF32 and wideF32 select the kernels of HashChunks, asking the CPU
// once: the pair kernel's floor is ROUNDPD, an SSE4.1 instruction the amd64
// baseline lacks; the wide kernel is wideOK. XGETBV exists only where
// OSXSAVE says so. Without them, and under -race, HashChunks hashes one
// chunk at a time.
var pairF32, wideF32 = func() (bool, bool) {
	top, _, _ := cpuid(0)
	_, _, ecx1 := cpuid(1)
	var ebx7, xcr0 uint32
	if top >= 7 {
		_, ebx7, _ = cpuid(7)
	}
	if ecx1&(1<<27) != 0 {
		xcr0 = xgetbv0()
	}
	return ecx1&(1<<19) != 0, wideOK(ecx1, ebx7, xcr0)
}()

// wideOK reports whether the wide kernel can run, from ECX of CPUID leaf 1
// (bit 27: OSXSAVE), EBX of leaf 7 (bits 16 and 17: AVX512F, AVX512DQ) and
// XCR0 (bits 1, 2, 5, 6 and 7: the OS saves the SSE, AVX, opmask and both
// ZMM parts of the state, which a guest's CPUID bits do not promise).
func wideOK(ecx1, ebx7, xcr0 uint32) bool {
	return ecx1&(1<<27) != 0 && ebx7&(3<<16) == 3<<16 && xcr0&0xe6 == 0xe6
}

// cpuid returns EAX, EBX and ECX of a CPUID leaf (subleaf 0); xgetbv0
// returns the low word of XCR0.
func cpuid(leaf uint32) (eax, ebx, ecx uint32)
func xgetbv0() uint32

// hashPairF32 is hashChunkF32 on two chunks at once (hash_amd64.s), chunk j
// at data[j·chunk:] into st[j]: from off (a multiple of 16) it hashes 16
// bytes of each per step, and returns where it stopped: the last whole step
// before lim, or the first step whose guard failed. hashWideF32 is the same
// on 16 chunks (hashwide_amd64.s). Both trust len(data) ≥ (n−1)·chunk + lim
// and cannot be preempted: hashRun slices data and bounds lim.
//
//go:noescape
func hashPairF32(eps float64, safe uint32, data []byte, chunk, off, lim int, st *[2]murmur3.Chain) (next int)

//go:noescape
func hashWideF32(eps float64, safe uint32, data []byte, chunk, off, lim int, st *[16]murmur3.Chain) (next int)

// hashRunsF32 hashes the leading whole float32 chunks of data the kernels
// take — runs of 16 on the wide kernel, then pairs on the pair kernel — into
// dst, and returns how many it hashed.
func (h *Hasher) hashRunsF32(dst []murmur3.Digest, data []byte, chunk int) int {
	i := 0
	var c [16]murmur3.Chain
	for _, r := range [...]struct {
		on bool
		n  int
	}{{wideF32, 16}, {pairF32, 2}} {
		for ; r.on && (i+r.n)*chunk <= len(data); i += r.n {
			run := c[:r.n]
			clear(run)
			h.hashRun(run, data[i*chunk:(i+r.n)*chunk], chunk)
			for j := range run {
				dst[i+j] = run[j].Sum()
			}
		}
	}
	return i
}

// hashRun hashes len(c) float32 chunks of one length — 2 or 16, data's
// pieces — into c on the kernel for that count, at most hashSpan or
// wideSpan bytes of each chunk a call. A step whose guard fails, and the
// tails, go through hashChunkF32 — its cell path — one chunk at a time.
func (h *Hasher) hashRun(c []murmur3.Chain, data []byte, chunk int) {
	data = data[:len(c)*chunk] // a short data panics here, in Go
	end := chunk &^ 15
	for off := 0; off < end; {
		var lim int
		if len(c) == 16 {
			lim = min(end, off+wideSpan)
			off = hashWideF32(h.eps, h.safe32, data, chunk, off, lim, (*[16]murmur3.Chain)(c))
		} else {
			lim = min(end, off+hashSpan)
			off = hashPairF32(h.eps, h.safe32, data, chunk, off, lim, (*[2]murmur3.Chain)(c))
		}
		if off < lim {
			for j := range c {
				h.hashChunkF32(&c[j], data[j*chunk+off:j*chunk+off+16])
			}
			off += 16
		}
	}
	for j := range c {
		h.hashChunkF32(&c[j], data[j*chunk+end:(j+1)*chunk])
	}
}
