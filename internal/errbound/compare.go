package errbound

import (
	"encoding/binary"
	"fmt"
	"math"
)

// The element-wise ε kernels — CompareSlices (stage 2's verifier), AllClose
// and AllCloseRel (the paper's numpy.allclose baseline) — are one loop,
// scan, over 32-byte blocks, in two tiers. The first tier only ever
// *accepts* elements the exact comparison would accept, so the answer is
// the exact comparison's on every input (DESIGN §9, "compare kernel"):
//
//  1. d = float64(a) − float64(b), and an element is accepted on the one
//     test |d| ≤ atol. The test is false whenever either side is not
//     finite (NaN − x and Inf − Inf are NaN, Inf − finite is ±Inf), so it
//     needs no finiteness mask; and |d| ≤ atol implies |d| ≤ atol +
//     rtol·|b|. It is evaluated on the bit patterns: for non-negative
//     floats bit order is value order, with +Inf and every NaN above all
//     finite values, so accept − bits(|d|) is negative exactly when the
//     test fails and the elements of a block share one OR and one branch.
//  2. Whatever is left goes through EqualRel itself, one element at a
//     time, and is reported when that says "different". With rtol = 0 a
//     finite d is reported without the call: both operands are finite and
//     EqualRel would repeat the first tier's test (tol.settled).
//
// A tier before these that skips bit-identical words without any float
// arithmetic was built and measured and is left to a later change: see
// DESIGN §9 for why.

// tol is one comparison's tolerance in the forms the two tiers read.
type tol struct {
	atol, rtol float64 // tier 2: EqualRel(a, b, atol, rtol); Equal is rtol = 0
	accept     int64   // tier 1: bits of the largest |a−b| accepted; −1 accepts nothing
	settled    uint64  // tier 2: |a−b| bits below this, once not accepted, are different
}

// newTol prepares the tiers for |a−b| ≤ atol + rtol·|b|. The accepting
// tier is only sound when that bound is at least atol ≥ 0 for every
// finite b; under any other tolerance (negative, NaN, or rtol = +Inf,
// whose product with b = 0 is NaN) it is switched off and every element
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

const signBit = uint64(1) << 63

// beyond is tier 1 for one element: negative exactly when !(|d| ≤ atol).
func (t *tol) beyond(d float64) int64 {
	return t.accept - int64(math.Float64bits(d)&^signBit)
}

func f32At(p []byte) float64 {
	return float64(math.Float32frombits(binary.LittleEndian.Uint32(p)))
}

func f64At(p []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

// scan runs the tiers over two equal-length buffers of esz-byte floats.
// With collect it appends the index of every different element to dst, in
// order; without, it stops at the first one. It reports whether none was
// found.
func (t *tol) scan(dst []int64, a, b []byte, esz int, collect bool) ([]int64, bool) {
	per := 32 / esz // elements per block
	var i int64
	for len(a) >= 32 && len(b) >= 32 {
		var ok bool
		if esz == 4 {
			dst, ok = t.blockF32(dst, a, b, i, per, collect)
		} else {
			dst, ok = t.blockF64(dst, a, b, i, per, collect)
		}
		if !ok {
			return dst, false
		}
		a, b, i = a[32:], b[32:], i+int64(per)
	}
	if len(a) == 0 {
		return dst, true
	}
	// The tail is a block padded with zeros on both sides.
	var ta, tb [32]byte
	n := copy(ta[:], a) / esz
	copy(tb[:], b)
	if esz == 4 {
		return t.blockF32(dst, ta[:], tb[:], i, n, collect)
	}
	return t.blockF64(dst, ta[:], tb[:], i, n, collect)
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
	dst, _ = t.scan(dst, a, b, h.dtype.Size(), true)
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
	_, ok := t.scan(nil, a, b, dtype.Size(), false)
	return ok, nil
}
