package errbound

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The element-wise ε kernels — CompareSlices (stage 2's verifier), AllClose
// and AllCloseRel (the paper's numpy.allclose baseline) — are one loop per
// dtype, scanF32 and scanF64, over 32-byte blocks, in tiers. Every tier but
// the last only ever *accepts* elements the exact comparison would accept,
// so the answer is the exact comparison's on every input (DESIGN §9,
// "compare kernel"):
//
//  0. float32 only, in float32: with T the largest float32 not above atol,
//     an element is accepted when |a −₃₂ b| < T, one single-precision
//     subtraction and no widening. The float32 difference is the real
//     difference x rounded, rounding is monotone and T is a float32, so
//     |x| ≥ T would give |a −₃₂ b| ≥ T; hence an accepted element has
//     |x| < T, and then the float64 difference is at most T ≤ atol, which
//     is tier 1's test. A whole block is accepted or handed on (acceptF32:
//     SSE2 on amd64, the Go loop acceptF32Go elsewhere).
//  1. d = float64(a) − float64(b), and an element is accepted on the one
//     test |d| ≤ atol. The test is false whenever either side is not
//     finite (NaN − x and Inf − Inf are NaN, Inf − finite is ±Inf), so it
//     needs no finiteness mask; and |d| ≤ atol implies |d| ≤ atol +
//     rtol·|b|. float64 blocks start here, in acceptF64.
//  2. Whatever is left goes through EqualRel itself, one element at a
//     time, and is reported when that says "different". With rtol = 0 a
//     finite d is reported without the call: both operands are finite and
//     EqualRel would repeat the first tier's test (tol.settled).
//
// The accepting tests are evaluated on bit patterns: for non-negative
// floats bit order is value order, with +Inf and every NaN above all finite
// values, so accept − bits(|d|) is negative exactly when the test fails and
// the elements of a block share one OR and one branch. blockF32 and
// blockF64 (tiers 1 and 2) are the only places an element is called
// different.

// tol is one comparison's tolerance in the forms the tiers read. It stays at
// four fields — tier 0's bound is derived, not stored (accept32): with a
// fifth the compiler keeps the struct in memory, and every call pays.
type tol struct {
	atol, rtol float64 // tier 2: EqualRel(a, b, atol, rtol); Equal is rtol = 0
	accept     int64   // tier 1: bits of the largest |a−b| accepted; −1 accepts nothing
	settled    uint64  // tier 2: |a−b| bits below this, once not accepted, are different
}

// newTol prepares the tiers for |a−b| ≤ atol + rtol·|b|. The accepting
// tiers are only sound when that bound is at least atol ≥ 0 for every
// finite b; under any other tolerance (negative, NaN, or rtol = +Inf,
// whose product with b = 0 is NaN) they are switched off and every element
// takes tier 2.
func newTol(atol, rtol float64) tol {
	t := tol{atol: atol, rtol: rtol, accept: -1}
	if atol >= 0 && rtol >= 0 && rtol <= math.MaxFloat64 {
		// +Inf is capped: |Inf| ≤ +Inf would accept Inf − finite.
		t.accept = int64(math.Float64bits(math.Abs(math.Min(atol, math.MaxFloat64))))
		if rtol == 0 && atol <= math.MaxFloat64 {
			// A finite d has finite operands, for which EqualRel is
			// |d| ≤ atol + 0·|b| = atol: tier 1's own test, already failed.
			t.settled = expMask64
		}
	}
	return t
}

const (
	signBit     = uint64(1) << 63
	signBit32   = uint32(1) << 31
	minNormal32 = 0x00800000 // the pattern of 2^-126
)

// abs64 and abs32 are the bit pattern of |d|, which orders as |d| does.
func abs64(d float64) int64 { return int64(math.Float64bits(d) &^ signBit) }
func abs32(d float32) int32 { return int32(math.Float32bits(d) &^ signBit32) }

// beyond is tier 1 for one element: negative exactly when !(|d| ≤ atol).
func (t *tol) beyond(d float64) int64 { return t.accept - abs64(d) }

// accept32 is tier 0's bound, derived from tier 1's: the pattern just below
// that of T, the largest float32 not above atol (as newTol capped it), and
// −1, which accepts nothing, when tier 1 is off or T is below the smallest
// normal float32 — there the difference itself can be subnormal, and what a
// flushing FPU makes of that is not the argument's to say.
func (t *tol) accept32() int32 {
	if t.accept < 0 {
		return -1
	}
	atol := math.Float64frombits(uint64(t.accept))
	c := float32(math.MaxFloat32)
	if atol < math.MaxFloat32 {
		c = float32(atol)
	}
	T := int32(math.Float32bits(c))
	if float64(c) > atol {
		T-- // rounded up: its predecessor
	}
	if T < minNormal32 {
		return -1
	}
	return T - 1
}

func f32At(p []byte) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(p)))
}

func f64At(p []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// backoffCap bounds how many exact blocks in a row must report nothing
// before a scan loop tries its accepting test again: after a divergent
// stretch, at most this many blocks (512 bytes) more take the slow route.
const backoffCap = 16

// scanF32 runs the tiers over two equal-length buffers of float32. With
// collect it appends the index of every different element to dst, in order;
// without, it stops at the first one. It reports whether none was found.
//
// Blocks are routed, not classified. The scan starts in the exact tiers, so
// a comparison that ends in its first block costs what it always did, and
// blockF32 keeps taking blocks while they report elements: in a divergent
// stretch the accepting test is wasted work and a mispredicted branch. After
// need blocks in a row that reported nothing, acceptF32 runs ahead until a
// block is not accepted whole, and that block is blockF32's again. need is
// 1, and doubles (up to backoffCap) each time acceptF32 comes back
// empty-handed, so data on which the guess keeps failing stops paying for
// it. Either route gives a block the same answer.
func (t *tol) scanF32(dst []int64, a, b []byte, collect bool) ([]int64, bool) {
	acc := t.accept32()
	off, end, need := 0, len(a)&^31, 1
	for off < end {
		for quiet := 0; quiet < need && off < end; off += 32 {
			n := len(dst)
			var ok bool
			if dst, ok = t.blockF32(dst, a[off:], b[off:], int64(off/4), 8, collect); !ok {
				return dst, false
			}
			quiet++
			if len(dst) != n {
				quiet = 0
			}
		}
		// Sliced here, a short b panics in Go: acceptF32 trusts its lengths.
		lim := min(end, off+acceptSpan)
		if n := acceptF32(acc, a[:lim], b[:lim], off); n > off {
			off, need = n, 1
		} else if need < backoffCap {
			need *= 2
		}
	}
	if end == len(a) {
		return dst, true
	}
	// The tail is a block padded with zeros on both sides.
	var ta, tb [32]byte
	n := copy(ta[:], a[end:]) / 4
	copy(tb[:], b[end:])
	return t.blockF32(dst, ta[:], tb[:], int64(end/4), n, collect)
}

// acceptSpan bounds the bytes one acceptF32 call scans. The assembly loop
// cannot be preempted, so a whole-field sweep is cut into pieces short
// enough not to hold off a stop-the-world; a piece accepted whole costs the
// next one a block through blockF32, which gives it the same answer.
const acceptSpan = 1 << 20

// acceptF32Go is tier 0 over whole blocks from off on: it returns the offset
// of the first one it does not accept, or of the tail. A leaf of its own so
// that the passing path is a straight line with acc and the cursors in
// registers, which the compiler does not manage around blockF32's call. It
// is acceptF32 where there is no assembly, and the reference the assembly is
// held to.
func acceptF32Go(acc int32, a, b []byte, off int) int {
	b = b[:len(a)]
	for ; off+32 <= len(a); off += 32 {
		p, q := a[off:off+32:off+32], b[off:off+32:off+32]
		m := beyond32(acc, binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(q)) |
			beyond32(acc, binary.LittleEndian.Uint64(p[8:]), binary.LittleEndian.Uint64(q[8:])) |
			beyond32(acc, binary.LittleEndian.Uint64(p[16:]), binary.LittleEndian.Uint64(q[16:])) |
			beyond32(acc, binary.LittleEndian.Uint64(p[24:]), binary.LittleEndian.Uint64(q[24:]))
		if m < 0 {
			break
		}
	}
	return off
}

// beyond32 is tier 0 for the two float32 in one 8-byte word of each side:
// negative exactly when a |a −₃₂ b| has a pattern above acc. NaN and ±Inf
// differences are above every finite acc, and −0 − +0 is a zero.
func beyond32(acc int32, wa, wb uint64) int32 {
	lo := math.Float32frombits(uint32(wa)) - math.Float32frombits(uint32(wb))
	hi := math.Float32frombits(uint32(wa>>32)) - math.Float32frombits(uint32(wb>>32))
	return (acc - abs32(lo)) | (acc - abs32(hi))
}

// scanF64 is scanF32 for float64. There is no tier 0 — tier 1 is already in
// the data's own precision — so acceptF64 is blockF64's accepting test.
func (t *tol) scanF64(dst []int64, a, b []byte, collect bool) ([]int64, bool) {
	off, end, need := 0, len(a)&^31, 1
	for off < end {
		for quiet := 0; quiet < need && off < end; off += 32 {
			n := len(dst)
			var ok bool
			if dst, ok = t.blockF64(dst, a[off:], b[off:], int64(off/8), 4, collect); !ok {
				return dst, false
			}
			quiet++
			if len(dst) != n {
				quiet = 0
			}
		}
		if n := acceptF64(t.accept, a, b, off); n > off {
			off, need = n, 1
		} else if need < backoffCap {
			need *= 2
		}
	}
	if end == len(a) {
		return dst, true
	}
	var ta, tb [32]byte
	n := copy(ta[:], a[end:]) / 8
	copy(tb[:], b[end:])
	return t.blockF64(dst, ta[:], tb[:], int64(end/8), n, collect)
}

// acceptF64 is acceptF32 for tier 1 over four float64 per block.
func acceptF64(acc int64, a, b []byte, off int) int {
	b = b[:len(a)]
	for ; off+32 <= len(a); off += 32 {
		p, q := a[off:off+32:off+32], b[off:off+32:off+32]
		m := (acc - abs64(f64At(p)-f64At(q))) | (acc - abs64(f64At(p[8:])-f64At(q[8:]))) |
			(acc - abs64(f64At(p[16:])-f64At(q[16:]))) | (acc - abs64(f64At(p[24:])-f64At(q[24:])))
		if m < 0 {
			break
		}
	}
	return off
}

// blockF32 is both tiers over one 32-byte block of float32 whose first
// element has index i and whose first n elements count.
func (t *tol) blockF32(dst []int64, a, b []byte, i int64, n int, collect bool) ([]int64, bool) {
	_, _ = a[31], b[31]
	m := [8]int64{
		t.beyond(f32At(a) - f32At(b)), t.beyond(f32At(a[4:]) - f32At(b[4:])),
		t.beyond(f32At(a[8:]) - f32At(b[8:])), t.beyond(f32At(a[12:]) - f32At(b[12:])),
		t.beyond(f32At(a[16:]) - f32At(b[16:])), t.beyond(f32At(a[20:]) - f32At(b[20:])),
		t.beyond(f32At(a[24:]) - f32At(b[24:])), t.beyond(f32At(a[28:]) - f32At(b[28:])),
	}
	if m[0]|m[1]|m[2]|m[3]|m[4]|m[5]|m[6]|m[7] >= 0 {
		return dst, true
	}
	for j := 0; j < n && j < len(m); j++ {
		if m[j] >= 0 {
			continue
		}
		// accept − m[j] is bits(|d|) again.
		if uint64(t.accept-m[j]) >= t.settled && EqualRel(f32At(a[4*j:]), f32At(b[4*j:]), t.atol, t.rtol) {
			continue
		}
		if !collect {
			return dst, false
		}
		dst = append(dst, i+int64(j))
	}
	return dst, true
}

// blockF64 is blockF32 for four float64 elements.
func (t *tol) blockF64(dst []int64, a, b []byte, i int64, n int, collect bool) ([]int64, bool) {
	_, _ = a[31], b[31]
	m := [4]int64{
		t.beyond(f64At(a) - f64At(b)), t.beyond(f64At(a[8:]) - f64At(b[8:])),
		t.beyond(f64At(a[16:]) - f64At(b[16:])), t.beyond(f64At(a[24:]) - f64At(b[24:])),
	}
	if m[0]|m[1]|m[2]|m[3] >= 0 {
		return dst, true
	}
	for j := 0; j < n && j < len(m); j++ {
		if m[j] >= 0 {
			continue
		}
		if uint64(t.accept-m[j]) >= t.settled && EqualRel(f64At(a[8*j:]), f64At(b[8*j:]), t.atol, t.rtol) {
			continue
		}
		if !collect {
			return dst, false
		}
		dst = append(dst, i+int64(j))
	}
	return dst, true
}

// checkShape rejects buffers the kernel cannot pair element by element.
func checkShape(a, b []byte, dtype DType) error {
	esz := dtype.Size()
	if esz == 0 {
		return fmt.Errorf("errbound: unsupported dtype %v", dtype)
	}
	if len(a) != len(b) {
		return fmt.Errorf("errbound: slice length mismatch %d != %d", len(a), len(b))
	}
	if len(a)%esz != 0 {
		return fmt.Errorf("errbound: slice length %d not a multiple of element size %d", len(a), esz)
	}
	return nil
}

// CompareSlices compares two equal-length raw byte slices element-wise and
// appends to dst the indices (element offsets relative to the start of the
// slices) whose absolute difference exceeds ε. It returns the extended
// slice and the number of elements compared. It allocates only when dst
// has to grow.
func (h *Hasher) CompareSlices(dst []int64, a, b []byte) ([]int64, int, error) {
	if err := checkShape(a, b, h.dtype); err != nil {
		return dst, 0, err
	}
	t := newTol(h.eps, 0)
	if h.dtype == Float32 {
		dst, _ = t.scanF32(dst, a, b, true)
	} else {
		dst, _ = t.scanF64(dst, a, b, true)
	}
	return dst, len(a) / h.dtype.Size(), nil
}

// AllClose reports whether every pair of elements in the two raw byte
// slices is within ε, the numpy.allclose(atol=ε, rtol=0) baseline of the
// paper. It stops at the first out-of-bound pair.
func (h *Hasher) AllClose(a, b []byte) (bool, error) {
	return AllCloseRel(a, b, h.dtype, h.eps, 0)
}

// AllCloseRel is the full numpy.allclose baseline over raw buffers: true
// when every element pair satisfies |a-b| <= atol + rtol·|b|.
func AllCloseRel(a, b []byte, dtype DType, atol, rtol float64) (bool, error) {
	if err := checkShape(a, b, dtype); err != nil {
		return false, err
	}
	t := newTol(atol, rtol)
	if dtype == Float32 {
		_, ok := t.scanF32(nil, a, b, false)
		return ok, nil
	}
	_, ok := t.scanF64(nil, a, b, false)
	return ok, nil
}
