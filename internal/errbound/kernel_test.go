package errbound

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// checkKernels holds every entry point of the block kernel against
// the per-element reference on one buffer pair: the index list (values and
// order), the compared count, and both booleans.
func checkKernels(t testing.TB, dtype DType, eps, rtol float64, a, b []byte) {
	t.Helper()
	h := &Hasher{eps: eps, dtype: dtype}
	// A non-empty dst proves the kernel appends and keeps what was there.
	prefix := []int64{-7, -9}
	got, n, err := h.CompareSlices(slices.Clone(prefix), a, b)
	if err != nil {
		t.Fatalf("CompareSlices: %v", err)
	}
	want, wantN := referenceCompareSlices(h, slices.Clone(prefix), a, b)
	if n != wantN || !slices.Equal(got, want) {
		t.Fatalf("%v eps=%g a=%x b=%x:\nCompareSlices = %v, %d\nreference     = %v, %d", dtype, eps, a, b, got, n, want, wantN)
	}
	ok, err := h.AllClose(a, b)
	if err != nil {
		t.Fatalf("AllClose: %v", err)
	}
	if wantOK := referenceAllClose(h, a, b); ok != wantOK {
		t.Fatalf("%v eps=%g a=%x b=%x: AllClose = %v, reference %v", dtype, eps, a, b, ok, wantOK)
	}
	ok, err = AllCloseRel(a, b, dtype, eps, rtol)
	if err != nil {
		t.Fatalf("AllCloseRel: %v", err)
	}
	if wantOK := referenceAllCloseRel(a, b, dtype, eps, rtol); ok != wantOK {
		t.Fatalf("%v atol=%g rtol=%g a=%x b=%x: AllCloseRel = %v, reference %v", dtype, eps, rtol, a, b, ok, wantOK)
	}
	// Tier 0 against the Go loop, from every block offset, at both bounds.
	abs, rel := newTol(eps, 0), newTol(eps, rtol)
	for _, acc := range []int32{abs.accept32(), rel.accept32()} {
		for off := 0; off <= len(a); off += 32 {
			checkAccept(t, acc, a, b, off)
		}
	}
}

// checkAccept holds acceptF32 to acceptF32Go on one input. Where there is
// no assembly the two are one loop and this checks nothing.
func checkAccept(t testing.TB, acc int32, a, b []byte, off int) {
	t.Helper()
	if got, want := acceptF32(acc, a, b, off), acceptF32Go(acc, a, b, off); got != want {
		t.Fatalf("acc=%#x off=%d a=%x b=%x: acceptF32 = %d, acceptF32Go %d", acc, off, a, b, got, want)
	}
}

// TestAcceptF32MatchesGo holds tier 0's assembly to the Go loop: a
// not-accepted element in each of a block's eight lanes (both 16-byte
// halves), before and after the cursor; every tail of 0–31 bytes behind
// accepted blocks, with accepted bytes past the end that an overreading loop
// would accept; both sides misaligned by 0–15 bytes; bounds from "accept
// nothing" to the top of the float32 range; and element pairs of NaN
// payloads (quiet and signalling), ±Inf, ±0, subnormals and differences that
// round to T.
func TestAcceptF32MatchesGo(t *testing.T) {
	accs := []int32{-1, 0, minNormal32 - 1}
	for _, eps := range []float64{1e-7, 1e-5, 1e-4, 0x1p-126, math.MaxFloat32} {
		tl := newTol(eps, 0)
		accs = append(accs, tl.accept32())
	}
	specials := []uint32{
		0x7fc00000, 0x7fc00001, 0xffc00001, 0x7fffffff, // quiet NaN payloads
		0x7f800001, 0x7fbfffff, 0xff800001, // signalling NaN payloads
		0x7f800000, 0xff800000, 0, 0x80000000, // ±Inf, ±0
		1, 0x80000001, 0x007fffff, 0x807fffff, minNormal32, // subnormals, the smallest normal
		0x3f800000, 0x7f7fffff, // 1, MaxFloat32
	}
	const one = 0x3f800000 // every element that is not under test, on both sides
	// fill returns n bytes of ones behind mis bytes of misalignment.
	fill := func(mis, n int) []byte {
		p := make([]byte, mis+n+3)[mis:]
		for i := 0; i+4 <= len(p); i += 4 {
			binary.LittleEndian.PutUint32(p[i:], one)
		}
		return p[:n]
	}
	for _, acc := range accs {
		var pairs [][2]uint32
		for _, x := range specials {
			for _, y := range specials {
				pairs = append(pairs, [2]uint32{x, y})
			}
		}
		for _, p := range roundingPairs(float64(math.Float32frombits(uint32(acc + 1)))) {
			pairs = append(pairs, [2]uint32{math.Float32bits(float32(p[0])), math.Float32bits(float32(p[1]))})
		}
		for _, p := range pairs {
			for lane := 0; lane < 8; lane++ {
				a, b := fill(0, 3*32+5), fill(0, 3*32+5)
				binary.LittleEndian.PutUint32(a[32+4*lane:], p[0])
				binary.LittleEndian.PutUint32(b[32+4*lane:], p[1])
				for off := 0; off <= 96; off += 32 {
					checkAccept(t, acc, a, b, off)
				}
			}
		}
		for tail := 0; tail < 32; tail++ {
			for mis := 0; mis < 16; mis++ {
				n := 3*32 + tail
				a, b := fill(mis, n+32), fill(15-mis, n+32)
				checkAccept(t, acc, a[:n], b[:n], 0)
				binary.LittleEndian.PutUint32(a[64+4*(mis%8):], 0x7fc00000)
				checkAccept(t, acc, a[:n], b[:n], 0)
			}
		}
	}
}

// edgePairs returns element pairs (as float64 values exactly representable
// in dtype) around everything the tiers special-case, for a bound eps.
func edgePairs(dtype DType, eps float64) [][2]float64 {
	nan := func(payload uint64) float64 {
		if dtype == Float32 {
			return float64(math.Float32frombits(0x7fc00000 | uint32(payload)))
		}
		return math.Float64frombits(0x7ff8000000000000 | payload)
	}
	// next is the neighbour of v in dtype, toward +Inf or −Inf.
	next := func(v float64, up bool) float64 {
		dir := math.Inf(-1)
		if up {
			dir = math.Inf(1)
		}
		if dtype == Float32 {
			return float64(math.Nextafter32(float32(v), float32(dir)))
		}
		return math.Nextafter(v, dir)
	}
	tiny, huge := math.SmallestNonzeroFloat64, math.MaxFloat64
	if dtype == Float32 {
		tiny, huge = math.SmallestNonzeroFloat32, math.MaxFloat32
	}
	inf, negZero := math.Inf(1), math.Copysign(0, -1)
	pairs := [][2]float64{
		{1.5, 1.5}, {0, 0}, {0, negZero}, {negZero, 0}, {negZero, negZero},
		{nan(1), nan(1)}, {nan(1), nan(2)}, {nan(1), -nan(1)}, {nan(1), 1}, {1, nan(2)}, {nan(1), inf},
		{inf, inf}, {-inf, -inf}, {inf, -inf}, {-inf, inf}, {inf, 1}, {1, -inf}, {inf, huge},
		{huge, huge}, {huge, -huge}, {-huge, huge}, {huge, next(huge, false)},
		{tiny, 0}, {tiny, -tiny}, {tiny, 2 * tiny}, {3 * tiny, 3 * tiny}, {-tiny, negZero},
	}
	// |a−b| at ε exactly (as far as dtype can say it) and one ULP of b to
	// either side, at a magnitude where the ULP is below ε and at one
	// where it is above.
	for _, base := range []float64{0, 1, -1, 1000, 1e-30} {
		a := base
		if dtype == Float32 {
			a = float64(float32(base))
		}
		for _, sign := range []float64{1, -1} {
			b := a + sign*eps
			if dtype == Float32 {
				b = float64(float32(b))
			}
			pairs = append(pairs, [2]float64{a, b}, [2]float64{a, next(b, true)}, [2]float64{a, next(b, false)},
				[2]float64{b, a}, [2]float64{next(a, true), a}, [2]float64{a, next(a, false)})
		}
	}
	return append(pairs, roundingPairs(eps)...)
}

// floorF32 is the largest float32 not above v ≥ 0: tier 0's T for v = ε.
func floorF32(v float64) float32 {
	f := float32(math.Min(v, math.MaxFloat32))
	if float64(f) > v {
		f = math.Nextafter32(f, 0)
	}
	return f
}

// roundingPairs returns float32 pairs whose float32 difference is not their
// real difference — the one thing tier 0 decides on that the exact tiers do
// not — with |a−b| around T = floorF32(eps): at T, pred32(T) and succ32(T),
// and, when eps is a float32, at eps ± one float64 ULP (gaps 52 and 53). A
// tier 0 that accepted at T instead of below it, or that took a rounded
// difference at its word, returns a different index list here.
func roundingPairs(eps float64) [][2]float64 {
	T := floorF32(eps)
	up := float32(math.Inf(1))
	var pairs [][2]float64
	for _, D := range []float32{T, math.Nextafter32(T, 0), math.Nextafter32(T, up)} {
		// Opposite signs with |a| ≈ |b| ≈ D/2: the sum of two floats of one
		// exponent needs a 25th bit whenever their last bits differ.
		h := D / 2
		halves := []float32{h, math.Nextafter32(h, 0), math.Nextafter32(h, up)}
		for _, a := range halves {
			for _, b := range halves {
				pairs = append(pairs, [2]float64{float64(a), -float64(b)}, [2]float64{-float64(a), float64(b)})
			}
		}
		// Exponent gaps: D ∓ D·2^-gap rounds back to D (or its neighbour) in
		// float32 from gap 24 on, is exact in float64 up to gap 29, and
		// rounds in both beyond 53.
		for _, gap := range []int{23, 24, 25, 26, 29, 30, 52, 53, 54, 60} {
			for _, sign := range []float64{1, -1} {
				small := sign * math.Ldexp(float64(D), -gap)
				pairs = append(pairs, [2]float64{float64(D), small}, [2]float64{small, float64(D)}, [2]float64{-float64(D), small})
			}
		}
	}
	return pairs
}

func encodePairs(dtype DType, pairs [][2]float64) (a, b []byte) {
	va := make([]float64, len(pairs))
	vb := make([]float64, len(pairs))
	for i, p := range pairs {
		va[i], vb[i] = p[0], p[1]
	}
	return encodeValues(dtype, va), encodeValues(dtype, vb)
}

// oracleEpsilons includes bounds below float32 precision at magnitude 1
// (6e-8) and below the smallest float32 denormal; then the bounds tier 0
// turns on: one that is a float32 (T = ε), its float64 neighbours (T = ε's
// float32 predecessor, and T just below ε), the top of the float32 range and
// beyond it, and the smallest normal float32, below which tier 0 is off.
var oracleEpsilons = []float64{1e-3, 1e-7, 1e-9, 1e-50, 0.5, 1e300, math.SmallestNonzeroFloat64,
	eps32, math.Nextafter(eps32, 0), math.Nextafter(eps32, 1),
	math.MaxFloat32, math.Nextafter(math.MaxFloat32, math.Inf(1)), math.Inf(1),
	0x1p-126, 0x1p-127, math.SmallestNonzeroFloat32, math.SmallestNonzeroFloat32 / 2,
}

// eps32 is a bound that is exactly a float32.
const eps32 = 0x1.4f8b58p-17 // float32(1e-5)

// TestKernelOracleEdges drives every edge pair through every position of
// the unrolled loop: windows of 0–9 elements and a few longer ones (each
// pair lands in a full block, next to identical neighbours, and in every
// tail length), on buffers starting at every byte offset 0–7.
func TestKernelOracleEdges(t *testing.T) {
	for _, dtype := range []DType{Float32, Float64} {
		esz := dtype.Size()
		for _, eps := range oracleEpsilons {
			a, b := encodePairs(dtype, edgePairs(dtype, eps))
			n := len(a) / esz
			lengths := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33, n}
			for _, w := range lengths {
				for start := 0; start+w <= n; start++ {
					checkKernels(t, dtype, eps, 0, a[start*esz:(start+w)*esz], b[start*esz:(start+w)*esz])
				}
			}
			// The same data behind 0–7 bytes of misalignment, and with one
			// edge pair at a time in a sea of bit-identical elements.
			for off := 0; off < 8; off++ {
				pa := append(make([]byte, off), a...)
				pb := append(make([]byte, off), b...)
				checkKernels(t, dtype, eps, 0, pa[off:], pb[off:])
				checkKernels(t, dtype, eps, 1e-3, pa[off:], pb[off:])
			}
			for k := 0; k < n; k++ {
				for pos := 0; pos < 9; pos++ {
					sa := append(make([]byte, 0, 20*esz), a[:20*esz]...)
					sb := slices.Clone(sa)
					copy(sa[pos*esz:], a[k*esz:(k+1)*esz])
					copy(sb[pos*esz:], b[k*esz:(k+1)*esz])
					checkKernels(t, dtype, eps, 0, sa, sb)
				}
			}
		}
	}
}

// TestKernelOracleBlockSequences drives the scan loops' routing — accepting
// run, exact run, back again — through every order of three kinds of
// 32-byte block, with every tail length behind it:
//
//	p  accepted whole by the dtype's accepting test (bit-equal, or a few ULP apart)
//	q  not accepted, and nothing to report: a NaN pair; a float32 pair whose
//	   float32 difference rounds up to T from just below it; a pair that only
//	   the relative tolerance lets through (under rtol = 0, one more f)
//	f  one element beyond ε, at a position that moves with the block
//
// The route a block takes depends on the blocks before it (a reporting block
// sends the next one straight to the exact tiers, a quiet one sends the loop
// back, and the way back lengthens while the accepting test keeps failing),
// the answer must not: CompareSlices must list exactly the f elements and
// AllClose stop at the first, whatever came before.
func TestKernelOracleBlockSequences(t *testing.T) {
	const eps, rtol = eps32, 1e-3
	var seqs []string
	for n, level := 0, []string{""}; n < 6; n++ {
		var next []string
		for _, s := range level {
			next = append(next, s+"p", s+"q", s+"f")
		}
		seqs, level = append(seqs, next...), next
	}
	// Long enough for the way back to reach its longest (16 quiet blocks)
	// and to come down again.
	for j := 0; j <= 34; j++ {
		seqs = append(seqs, "f"+strings.Repeat("q", j)+"pf", "q"+strings.Repeat("f", j)+"qp")
	}
	seqs = append(seqs, strings.Repeat("q", 40), strings.Repeat("qf", 20), strings.Repeat("qpf", 14), strings.Repeat("f", 40)+"p")
	for _, dtype := range []DType{Float32, Float64} {
		for _, seq := range seqs {
			for tail := 0; tail < 32/dtype.Size(); tail++ {
				a, b := encodePairs(dtype, blockSeqPairs(dtype, eps, seq, tail))
				checkKernels(t, dtype, eps, 0, a, b)
				checkKernels(t, dtype, eps, rtol, a, b)
			}
		}
	}
}

// blockSeqPairs returns the element pairs of one 32-byte block of dtype per
// letter of seq (p, q or f, as above), then tail more elements cut from a
// block of the kind the sequence ends in.
func blockSeqPairs(dtype DType, eps float64, seq string, tail int) [][2]float64 {
	per := 32 / dtype.Size()
	T := float64(floorF32(eps))
	quiet := [][2]float64{
		{math.NaN(), math.NaN()},
		{T, math.Ldexp(T, -26)}, // float32: T − T·2^-26 rounds to T; tier 1 accepts it
		{1000, 1000 + 100*eps},  // within atol + rtol·|b| only
	}
	block := func(kind byte, k int) [][2]float64 {
		pairs := make([][2]float64, per)
		for j := range pairs {
			v := 1 + 0.25*float64(j)
			pairs[j] = [2]float64{v, v + float64(j%2)*eps/4}
		}
		switch kind {
		case 'q':
			pairs[k%per] = quiet[k%len(quiet)]
		case 'f':
			pairs[k%per][1] += 3 * eps
		}
		return pairs
	}
	var pairs [][2]float64
	for k := range seq {
		pairs = append(pairs, block(seq[k], k)...)
	}
	return append(pairs, block(seq[len(seq)-1], len(seq))[:tail]...)
}

// TestKernelOracleTolerances covers AllCloseRel's tolerances, including
// the ones under which bit-equal values are NOT close (negative, NaN, and
// rtol = +Inf, whose product with b = 0 is NaN): the accepting tier must
// be off there.
func TestKernelOracleTolerances(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	tols := [][2]float64{
		{0, 0}, {0, 1e-3}, {1e-6, 1e-3}, {1e-6, 1}, {inf, 0}, {inf, 1}, {1e-6, math.MaxFloat64}, {math.Copysign(0, -1), 0},
		{-1e-6, 0}, {-1e-6, 1e-3}, {1e-6, -1e-3}, {nan, 0}, {1e-6, nan}, {1e-6, inf}, {-inf, 0}, {1e-6, -inf},
	}
	for _, dtype := range []DType{Float32, Float64} {
		a, b := encodePairs(dtype, edgePairs(dtype, 1e-6))
		esz := dtype.Size()
		same := encodeValues(dtype, make([]float64, 16)) // bit-identical whole blocks, no tail
		for _, tl := range tols {
			want := referenceAllCloseRel(same, same, dtype, tl[0], tl[1])
			if got, err := AllCloseRel(same, same, dtype, tl[0], tl[1]); err != nil || got != want {
				t.Fatalf("%v atol=%g rtol=%g on identical zeros: AllCloseRel = %v, %v; reference %v", dtype, tl[0], tl[1], got, err, want)
			}
			for i := 0; i+esz <= len(a); i += esz {
				for _, w := range []int{1, 9} {
					end := min(i+w*esz, len(a))
					want := referenceAllCloseRel(a[i:end], b[i:end], dtype, tl[0], tl[1])
					got, err := AllCloseRel(a[i:end], b[i:end], dtype, tl[0], tl[1])
					if err != nil || got != want {
						t.Fatalf("%v atol=%g rtol=%g a=%x b=%x: AllCloseRel = %v, %v; reference %v",
							dtype, tl[0], tl[1], a[i:end], b[i:end], got, err, want)
					}
				}
			}
		}
	}
}

// TestKernelOracleQuick compares random bit patterns: b is a, with each
// element kept, nudged by a few ULPs, moved by about ε, or replaced.
func TestKernelOracleQuick(t *testing.T) {
	for _, dtype := range []DType{Float32, Float64} {
		esz := dtype.Size()
		f := func(seed int64, n uint8, epsExp int8) bool {
			rng := rand.New(rand.NewSource(seed))
			eps := math.Pow(10, float64(epsExp%12)-6)
			a := make([]byte, int(n)*esz)
			rng.Read(a)
			b := slices.Clone(a)
			for i := 0; i < int(n); i++ {
				p := b[i*esz : (i+1)*esz]
				switch rng.Intn(8) {
				case 0:
					p[0] += byte(1 + rng.Intn(3))
				case 1:
					var v float64
					if dtype == Float32 {
						v = f32At(p)
					} else {
						v = f64At(p)
					}
					copy(p, encodeValues(dtype, []float64{v + eps*(rng.Float64()*2-1)*1.5}))
				case 2:
					rng.Read(p)
				}
			}
			checkKernels(t, dtype, eps, float64(seed&1)*1e-3, a, b)
			return !t.Failed()
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Error(err)
		}
	}
}

// TestKernelAllocFree pins the stage-2 contract: with capacity in dst the
// kernel allocates nothing, whichever tier the data takes.
func TestKernelAllocFree(t *testing.T) {
	for _, dtype := range []DType{Float32, Float64} {
		a, b := encodePairs(dtype, edgePairs(dtype, 1e-6))
		h, err := NewHasher(dtype, 1e-6)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int64, 0, len(a)/dtype.Size())
		allocs := testing.AllocsPerRun(100, func() {
			dst, _, _ = h.CompareSlices(dst[:0], a, b)
			sinkOK, _ = h.AllClose(a, a)
		})
		if allocs != 0 {
			t.Errorf("%v: %v allocations per run, want 0", dtype, allocs)
		}
		if len(dst) == 0 {
			t.Errorf("%v: edge pairs produced no difference; the test exercises nothing", dtype)
		}
	}
}

// kernelCorpus is what the checked-in seeds of FuzzCompareSlices hold beside
// the older hand-made ones: the rounding pairs of every bound tier 0 treats
// differently, and one block sequence with a tail, per dtype, in the go test
// fuzz v1 format, keyed by file name.
func kernelCorpus() map[string]string {
	entry := func(dtype DType, eps, rtol float64, pairs [][2]float64) string {
		a, b := encodePairs(dtype, pairs)
		for i := range b {
			b[i] ^= a[i]
		}
		return fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n[]byte(%q)\nuint64(%d)\nuint64(%d)\nbool(%v)\n",
			a, b, math.Float64bits(eps), math.Float64bits(rtol), dtype == Float64)
	}
	files := make(map[string]string)
	for _, dtype := range []DType{Float32, Float64} {
		for _, eps := range []float64{eps32, math.Nextafter(eps32, 0), math.Nextafter(eps32, 1), math.MaxFloat32, 0x1p-126} {
			files[fmt.Sprintf("%v_rounding_eps_%016x", dtype, math.Float64bits(eps))] = entry(dtype, eps, 0, roundingPairs(eps))
		}
		files[fmt.Sprintf("%v_block_sequence", dtype)] = entry(dtype, eps32, 1e-3, blockSeqPairs(dtype, eps32, "pfpffpqfqqpqqqf", 3))
	}
	return files
}

// TestKernelCorpus keeps those seeds current: a change to roundingPairs or
// blockSeqPairs rewrites the files from the text this test prints.
func TestKernelCorpus(t *testing.T) {
	for name, want := range kernelCorpus() {
		path := "testdata/fuzz/FuzzCompareSlices/" + name
		if got, err := os.ReadFile(path); err != nil || string(got) != want {
			t.Errorf("%s is not the generated entry (read error %v); it should hold:\n%s", path, err, want)
		}
	}
}

// FuzzCompareSlices asserts kernel == reference on arbitrary bytes. The
// second input is XOR-ed onto the first to make side B, so the zero bytes
// the fuzzer favours become bit-identical words and both tiers are reached.
func FuzzCompareSlices(f *testing.F) {
	for _, dtype := range []DType{Float32, Float64} {
		a, b := encodePairs(dtype, edgePairs(dtype, 1e-6))
		delta := make([]byte, len(a))
		for i := range a {
			delta[i] = a[i] ^ b[i]
		}
		f.Add(a, delta, math.Float64bits(1e-6), math.Float64bits(0), dtype == Float64)
		f.Add(a[:36], delta[:36], math.Float64bits(1e-3), math.Float64bits(1e-2), dtype == Float64)
	}
	f.Add([]byte{}, []byte{}, math.Float64bits(1e-7), math.Float64bits(0), false)
	f.Fuzz(func(t *testing.T, a, delta []byte, epsBits, rtolBits uint64, f64 bool) {
		dtype := Float32
		if f64 {
			dtype = Float64
		}
		eps := math.Abs(math.Float64frombits(epsBits))
		if !(eps > 0) || math.IsInf(eps, 0) {
			eps = 1e-6 // NewHasher admits nothing else
		}
		a = a[:len(a)/dtype.Size()*dtype.Size()]
		b := slices.Clone(a)
		for i := range b {
			if i < len(delta) {
				b[i] ^= delta[i]
			}
		}
		checkKernels(t, dtype, eps, math.Float64frombits(rtolBits), a, b)
	})
}
