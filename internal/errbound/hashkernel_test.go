package errbound

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/murmur3"
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
		// Seventeen whole chunks, a run of sixteen and the odd one, and a
		// short one; then four whole, two pairs, and the short one.
		data := bytes.Repeat(chunk[:4096], 5)[:17*1024+dtype.Size()]
		dst := make([]murmur3.Digest, 18)
		for _, n := range []int{len(data), len(chunk)} {
			t.Run(fmt.Sprintf("%v/%dB", dtype, n), func(t *testing.T) {
				chunkPaths(t, func(t *testing.T) {
					if a := testing.AllocsPerRun(100, func() {
						if err := h.HashChunks(dst, data[:n], 1024); err != nil {
							t.Fatal(err)
						}
					}); a != 0 {
						t.Errorf("%v allocations per HashChunks", a)
					}
				})
			})
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
		// The same bytes through HashChunks, 1 to 64 elements a chunk as
		// the first byte picks.
		if len(chunk) > 0 {
			checkChunks(t, h, chunk, dtype.Size()*(1+int(chunk[0])%64))
		}
	})
}

// TestHashKernelCorpus: the checked-in fuzz corpus is one entry per dtype
// and bound of the boundary table, each the guard's edge values for that
// bound in the go test fuzz v1 format, and one run for the wide kernel:
// float32 under ε = 1e-5, 8 elements a piece (the first byte, 7, picks it),
// 17 pieces and a short one, with an edge value in chunks 0, 7, 8 and 15. A
// change to guardEdges rewrites the files from the text this test prints.
func TestHashKernelCorpus(t *testing.T) {
	h, err := NewHasher(Float32, 1e-5)
	if err != nil {
		t.Fatal(err)
	}
	edges := guardEdges(h)
	run := make([]byte, (17*8+1)*4)
	for i := 0; i < len(run)/4; i++ {
		putElem(Float32, run, i, elemBits(Float32, 1.5+float64(i)/64))
	}
	run[0] = 7
	for k, at := range []int{0*8 + 5, 7*8 + 7, 8*8 + 2, 15*8 + 6} {
		putElem(Float32, run, at, edges[3*k])
	}
	want := fmt.Sprintf("go test fuzz v1\nbool(false)\nuint64(%d)\n[]byte(%q)\n", math.Float64bits(1e-5), run)
	if got, err := os.ReadFile("testdata/fuzz/FuzzHashChunk/f32_wide_run"); err != nil || string(got) != want {
		t.Errorf("testdata/fuzz/FuzzHashChunk/f32_wide_run is not the wide entry (read error %v); it should hold:\n%s", err, want)
	}
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

// chunkPaths runs fn on each way HashChunks can hash float32 runs: through
// the wide kernel, through the pair kernel (wideF32 cleared) and through the
// HashChunk loop (pairF32 cleared too), each where this build and CPU have
// it.
func chunkPaths(t *testing.T, fn func(t *testing.T)) {
	for _, rung := range []string{"wide", "pair", "loop"} {
		ok, restore := forceLeafRung(rung)
		if ok {
			t.Run(rung, fn)
		} else {
			t.Logf("no %s kernel in this build or on this CPU", rung)
		}
		restore()
	}
}

// checkChunks holds HashChunks over data to a HashChunk loop over its
// chunk-sized pieces — which the tables above and FuzzHashChunk hold to the
// seed oracle: the same digests, or the same error from the same piece with
// the same digests below it, and nothing written past the last piece.
func checkChunks(t *testing.T, h *Hasher, data []byte, chunk int) {
	t.Helper()
	n := (len(data) + chunk - 1) / chunk
	got := make([]murmur3.Digest, n+1)
	gotErr := h.HashChunks(got, data, chunk)
	for i := 0; i < n; i++ {
		want, err := h.HashChunk(data[i*chunk : min((i+1)*chunk, len(data))])
		if err != nil {
			if gotErr == nil || gotErr.Error() != err.Error() {
				t.Fatalf("%v eps=%g chunk %d of %d bytes: piece %d fails with %v, HashChunks returned %v", h.dtype, h.eps, chunk, len(data), i, err, gotErr)
			}
			return
		}
		if got[i] != want {
			t.Fatalf("%v eps=%g chunk %d of %d bytes: piece %d is %v, HashChunk %v", h.dtype, h.eps, chunk, len(data), i, got[i], want)
		}
	}
	if gotErr != nil {
		t.Fatalf("%v eps=%g chunk %d of %d bytes: %v, and no piece fails", h.dtype, h.eps, chunk, len(data), gotErr)
	}
	if got[n] != (murmur3.Digest{}) {
		t.Fatalf("%v eps=%g chunk %d of %d bytes: digest written past piece %d", h.dtype, h.eps, chunk, len(data), n-1)
	}
}

// fillCells fills data with elements of dtype at random cells: k·ε·2^-4 for
// k up to ±2^30, so the guard passes wherever the dtype can hold the value.
// With integral set they are k·ε, whose quotients are whole numbers (exact
// for a power-of-two ε), where floor and truncation agree.
func fillCells(rng *rand.Rand, dtype DType, eps float64, data []byte, integral bool) {
	for i := 0; i < len(data)/dtype.Size(); i++ {
		k := float64(rng.Int63n(1<<31) - 1<<30)
		v := math.Ldexp(k*eps, -4)
		if integral {
			v = float64(rng.Intn(1<<21)-1<<20) * eps
		}
		putElem(dtype, data, i, elemBits(dtype, v))
	}
}

// TestHashChunksMatchesHashChunk holds HashChunks, on the wide kernel, the
// forced pair kernel and the forced HashChunk loop, to the per-piece loop
// and the seed oracle: chunks of 4 B to 64 KiB, multiples of 16 or not, one
// to five of them and runs around 16 and 32, a short last one and one that
// is not whole elements, ε across the guard's range and ε with integral
// quotients; then a guard failure — NaN, ±Inf, a cell near a clamp, one
// pattern above the guard — in one chunk of a pair or a run of 16 or both
// ends, at the first step, the last step, the tail and either side of a
// call's span.
func TestHashChunksMatchesHashChunk(t *testing.T) {
	chunkPaths(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1))
		for _, dtype := range []DType{Float32, Float64} {
			esz := dtype.Size()
			for _, eps := range append(guardEpsilons, 0.25, 0x1p-10) {
				h, err := NewHasher(dtype, eps)
				if err != nil {
					t.Fatal(err)
				}
				for _, chunk := range []int{4, 6, 8, 12, 16, 20, 24, 28, 40, 44, 100, 4096, 4100, 64 << 10} {
					if chunk%esz != 0 && chunk != 6 {
						continue
					}
					// Large chunks at fewer counts: what a count tests is
					// the same at every size.
					counts := []int{1, 2, 3, 4, 5, 15, 16, 17, 32, 33}
					if chunk >= 4096 {
						counts = []int{1, 2, 3, 16, 17}
					}
					for _, pieces := range counts {
						for _, short := range []int{0, 2, esz, 3 * esz} {
							if short >= chunk || chunk >= 4096 && short > esz {
								continue
							}
							data := make([]byte, pieces*chunk+short)
							fillCells(rng, dtype, eps, data, eps == 0.25 || eps == 0x1p-10)
							checkChunks(t, h, data, chunk)
						}
					}
				}
			}
		}

		h, err := NewHasher(Float32, 1e-5)
		if err != nil {
			t.Fatal(err)
		}
		bad := []uint32{
			math.Float32bits(float32(math.NaN())), math.Float32bits(float32(math.Inf(1))),
			math.Float32bits(float32(math.Inf(-1))), math.Float32bits(float32(math.Ldexp(-1e-5, 62))),
			h.safe32 + 1,
		}
		for _, chunk := range []int{16, 56, 4096, 2*wideSpan + 40, 2*hashSpan + 40} {
			steps := chunk &^ 15
			ats := []int{0, steps - 16, steps - 4, chunk - 4}
			for _, span := range []int{wideSpan, hashSpan} {
				if chunk > 2*span {
					ats = append(ats, span-4, span, 2*span-4, 2*span)
				}
			}
			for _, pieces := range []int{2, 3, 16, 17} {
				if pieces > 2 && chunk > hashSpan {
					continue
				}
				sides := [][]int{{0}, {1}, {0, 1}}
				if pieces >= 16 {
					sides = [][]int{{0}, {7}, {8}, {15}, {0, 15}}
				}
				data := make([]byte, pieces*chunk)
				fillCells(rng, Float32, h.eps, data, false)
				d := make([]byte, len(data))
				for _, b := range bad {
					for _, at := range ats {
						for _, side := range sides {
							copy(d, data)
							for _, s := range side {
								binary.LittleEndian.PutUint32(d[s*chunk+at:], b)
							}
							checkChunks(t, h, d, chunk)
						}
					}
				}
			}
		}
	})
}

// TestHashChunksGuardBoundaries is TestHashKernelGuardBoundaries' table
// through HashChunks: each edge value in every lane and tail of chunks of 1
// to 9 elements, in the first and last chunk of each of a run of 16's two
// groups of 8 (chunks 0, 7, 8 and 15; on the pair path the first and second
// of a pair).
func TestHashChunksGuardBoundaries(t *testing.T) {
	chunkPaths(t, func(t *testing.T) {
		for _, dtype := range []DType{Float32, Float64} {
			for _, eps := range guardEpsilons {
				h, err := NewHasher(dtype, eps)
				if err != nil {
					t.Fatal(err)
				}
				for _, edge := range guardEdges(h) {
					for n := 1; n <= 9; n++ {
						data := make([]byte, 16*n*dtype.Size())
						for _, piece := range []int{0, 7, 8, 15} {
							for at := piece * n; at < (piece+1)*n; at++ {
								for i := 0; i < 16*n; i++ {
									putElem(dtype, data, i, elemBits(dtype, 1.5+float64(i)))
								}
								putElem(dtype, data, at, edge)
								checkChunks(t, h, data, n*dtype.Size())
							}
						}
					}
				}
			}
		}
	})
}
