package errbound

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"testing"
)

// guardEpsilons span the guard's whole range: 2^61·ε below the smallest
// denormal (nothing but ±0 is safe), inside the float32 range, inside the
// float64 range only, and above MaxFloat64 (every finite value is safe).
var guardEpsilons = []float64{1e-300, 1e-30, 1e-7, 1e-5, 1, 1e30, 1e300}

// elemBits is v as a raw element of dtype (rounded to float32 for Float32).
func elemBits(dtype DType, v float64) uint64 {
	if dtype == Float32 {
		return uint64(math.Float32bits(float32(v)))
	}
	return math.Float64bits(v)
}

// putElem stores one raw element of dtype.
func putElem(dtype DType, chunk []byte, i int, bits uint64) {
	if dtype == Float32 {
		binary.LittleEndian.PutUint32(chunk[4*i:], uint32(bits))
	} else {
		binary.LittleEndian.PutUint64(chunk[8*i:], bits)
	}
}

// guardEdges returns, as raw element bit patterns, the values at which the
// kernel's fast path and the full cell path would disagree if the guard
// were off by anything: the guard and its neighbours, zeros and the
// smallest denormals, the ends of the finite range, ±Inf and NaN payloads,
// and the values whose cells reach the guard's bound (|x/ε| = 2^61) and
// each clamp of quantizeFinite (2^63) — every one with both signs.
func guardEdges(h *Hasher) []uint64 {
	sign, safe := uint64(1)<<63, h.safe64
	if h.dtype == Float32 {
		sign, safe = uint64(1)<<31, uint64(h.safe32)
	}
	inf := elemBits(h.dtype, math.Inf(1))
	mags := []uint64{
		safe, safe + 1, safe + 2, (safe - 1) & (sign - 1), // at safe = 0 the last is a NaN, welcome too
		0, 1, 2,
		inf - 1, inf - 2, // MaxFloat of dtype and its neighbour
		inf, inf + 1, elemBits(h.dtype, math.NaN()), sign - 1, // Inf; first, quiet and last NaN payloads
		elemBits(h.dtype, h.eps), elemBits(h.dtype, h.eps*0.999), elemBits(h.dtype, h.eps*2.5),
	}
	for _, e := range []int{61, 62, 63, 64} {
		m := elemBits(h.dtype, math.Ldexp(h.eps, e)) // Inf where it overflows
		mags = append(mags, m, m+1, (m-1)&(sign-1))
	}
	out := make([]uint64, 0, 2*len(mags))
	for _, m := range mags {
		out = append(out, m, m|sign)
	}
	return out
}

// TestHashKernelGuardBoundaries puts every edge value in every lane of the
// kernel's four-element iteration and of every tail — chunks of 0 to 9
// elements: up to two iterations, and tails of 0 to 5 elements past the
// first — among ordinary neighbours, and holds the kernel to the seed
// oracle. It also holds the guard to its definition.
func TestHashKernelGuardBoundaries(t *testing.T) {
	for _, dtype := range []DType{Float32, Float64} {
		for _, eps := range guardEpsilons {
			h, err := NewHasher(dtype, eps)
			if err != nil {
				t.Fatal(err)
			}
			// The largest magnitude within 2^61·ε: the next pattern up is
			// beyond the bound, or not finite.
			limit := math.Ldexp(eps, 61)
			within, above := math.Float64frombits(h.safe64), math.Float64frombits(h.safe64+1)
			if dtype == Float32 {
				within, above = float64(math.Float32frombits(h.safe32)), float64(math.Float32frombits(h.safe32+1))
			}
			if !(within <= limit) || math.IsInf(within, 0) || (above <= limit && !math.IsInf(above, 0)) {
				t.Fatalf("%v eps=%g: guard %g, next up %g, bound %g", dtype, eps, within, above, limit)
			}
			var scratch [blockElems * 8]byte
			for _, edge := range guardEdges(h) {
				for n := 1; n <= 9; n++ {
					for at := 0; at < n; at++ {
						chunk := make([]byte, n*dtype.Size())
						for i := 0; i < n; i++ {
							putElem(dtype, chunk, i, elemBits(dtype, 1.5+float64(i)))
						}
						putElem(dtype, chunk, at, edge)
						want, err := referenceHashChunkScratch(h, chunk, scratch[:])
						if err != nil {
							t.Fatal(err)
						}
						if got, _ := h.HashChunk(chunk); got != want {
							t.Fatalf("%v eps=%g edge %#x at %d of %d: kernel %v, oracle %v", dtype, eps, edge, at, n, got, want)
						}
					}
				}
			}
		}
	}
}

// TestHashKernelAllocFree: neither the fast path nor the cell path of the
// kernel allocates.
func TestHashKernelAllocFree(t *testing.T) {
	for _, dtype := range []DType{Float32, Float64} {
		h, err := NewHasher(dtype, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		chunk := make([]byte, 4096+dtype.Size())
		for i, edge := range guardEdges(h) {
			putElem(dtype, chunk, 7*i, edge)
		}
		if n := testing.AllocsPerRun(100, func() {
			if _, err := h.HashChunk(chunk); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%v: %v allocations per HashChunk", dtype, n)
		}
	}
}

// FuzzHashChunk holds the kernel to the seed oracle on arbitrary element
// bytes under an arbitrary bound. The checked-in corpus
// (testdata/fuzz/FuzzHashChunk) carries the guard's edge values for every
// bound of the boundary table; TestHashKernelCorpus keeps it current.
func FuzzHashChunk(f *testing.F) {
	f.Add(false, math.Float64bits(1e-5), []byte{})
	f.Fuzz(func(t *testing.T, f64 bool, epsBits uint64, raw []byte) {
		dtype := Float32
		if f64 {
			dtype = Float64
		}
		h, err := NewHasher(dtype, math.Float64frombits(epsBits))
		if err != nil {
			return // NewHasher admits only a positive finite ε
		}
		chunk := raw[:len(raw)/dtype.Size()*dtype.Size()]
		var scratch [blockElems * 8]byte
		want, err := referenceHashChunkScratch(h, chunk, scratch[:])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := h.HashChunk(chunk); err != nil || got != want {
			t.Fatalf("%v eps=%g % x: kernel %v (%v), oracle %v", dtype, h.eps, chunk, got, err, want)
		}
	})
}

// TestHashKernelCorpus: the checked-in fuzz corpus is one entry per dtype
// and bound of the boundary table, each the guard's edge values for that
// bound in the go test fuzz v1 format. A change to guardEdges rewrites the
// files from the text this test prints.
func TestHashKernelCorpus(t *testing.T) {
	for _, dtype := range []DType{Float32, Float64} {
		for _, eps := range guardEpsilons {
			h, err := NewHasher(dtype, eps)
			if err != nil {
				t.Fatal(err)
			}
			edges := guardEdges(h)
			chunk := make([]byte, len(edges)*dtype.Size())
			for i, e := range edges {
				putElem(dtype, chunk, i, e)
			}
			want := fmt.Sprintf("go test fuzz v1\nbool(%v)\nuint64(%d)\n[]byte(%q)\n", dtype == Float64, math.Float64bits(eps), chunk)
			name := fmt.Sprintf("testdata/fuzz/FuzzHashChunk/%v_eps_%g", dtype, eps)
			if got, err := os.ReadFile(name); err != nil || string(got) != want {
				t.Errorf("%s is not the boundary entry (read error %v); it should hold:\n%s", name, err, want)
			}
		}
	}
}
