// Package errbound implements the error-bounded floating-point
// quantization and chunk hashing scheme of the comparator (paper §2.4).
//
// Floating-point values are conservatively mapped onto a grid of cell width
// ε (the user-defined absolute error bound): cell(x) = floor(x/ε). Two
// values whose absolute difference exceeds ε always land in different cells,
// so hashing the cell indices can never hide an out-of-bound difference
// (no false negatives). Two values within ε of each other usually land in
// the same cell but may straddle a cell boundary, producing the false
// positives that stage 2 of the comparator filters out with an exact
// element-wise check.
//
// Chunks are hashed at 128-bit block granularity: each block is hashed with
// Murmur3F seeded by the digest of the previous block, so the final digest
// reflects every quantized value in the chunk (paper §2.4, "block-based
// hashing").
package errbound

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/murmur3"
)

// DType identifies the element type of checkpoint data.
type DType uint8

// Supported element types.
const (
	Float32 DType = iota + 1
	Float64
)

// Size returns the element size in bytes.
func (d DType) Size() int {
	switch d {
	case Float32:
		return 4
	case Float64:
		return 8
	default:
		return 0
	}
}

// String returns the conventional name of the element type.
func (d DType) String() string {
	switch d {
	case Float32:
		return "f32"
	case Float64:
		return "f64"
	default:
		return fmt.Sprintf("DType(%d)", uint8(d))
	}
}

// ErrBadEpsilon is returned when an error bound is not a positive, finite
// number.
var ErrBadEpsilon = errors.New("error bound must be positive and finite")

// Special quantization cells for non-finite values. They sit outside the
// range reachable by finite float32/float64 inputs divided by any positive
// ε ≥ 2^-1074 scale combination that matters in practice, and more
// importantly are distinct from each other.
const (
	cellNaN    = int64(math.MaxInt64)
	cellPosInf = int64(math.MaxInt64 - 1)
	cellNegInf = int64(math.MinInt64)
)

// Quantize maps a float64 value to its ε-grid cell index.
//
// Guarantee: for finite a, b with |a-b| > ε (up to floating-point division
// rounding), Quantize(a, ε) != Quantize(b, ε). NaN and infinities map to
// dedicated sentinel cells so that, e.g., NaN in one run vs. a finite value
// in the other is always flagged.
func Quantize(x, eps float64) int64 {
	if isFinite64(math.Float64bits(x)) {
		return quantizeFinite(x, eps)
	}
	return quantizeSpecial(x)
}

// expMask64/expMask32 are the IEEE 754 exponent fields; an all-ones
// exponent means NaN or ±Inf, so a single mask test classifies a value as
// finite — the branch the hot loops hoist in place of the per-element
// IsNaN/IsInf cascade.
const (
	expMask64 = uint64(0x7ff0000000000000)
	expMask32 = uint32(0x7f800000)
)

func isFinite64(bits uint64) bool { return bits&expMask64 != expMask64 }
func isFinite32(bits uint32) bool { return bits&expMask32 != expMask32 }

// quantizeFinite is the finite-value fast path: x must not be NaN or ±Inf.
// The division (not a multiplication by 1/ε, which rounds differently)
// and the Floor keep the cell function bit-identical across call sites.
func quantizeFinite(x, eps float64) int64 {
	q := math.Floor(x / eps)
	// Clamp the finite range away from the sentinels.
	if q >= float64(math.MaxInt64-2) {
		return math.MaxInt64 - 2
	}
	if q <= float64(math.MinInt64+2) {
		return math.MinInt64 + 2
	}
	return int64(q)
}

// quantizeSpecial is the sentinel path for non-finite values.
func quantizeSpecial(x float64) int64 {
	switch {
	case math.IsNaN(x):
		return cellNaN
	case math.IsInf(x, 1):
		return cellPosInf
	default:
		return cellNegInf
	}
}

// Equal reports whether two values are equal within the absolute error
// bound ε, i.e. NOT different in the paper's sense (|a-b| > ε means
// different). NaN equals NaN here: two runs both producing NaN at the same
// index are not a divergence the bound can rank, and the hash treats them
// identically.
func Equal(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= eps
}

// Hasher hashes chunks of raw checkpoint bytes under an error bound. A
// Hasher is immutable after construction and safe for concurrent use.
type Hasher struct {
	eps   float64
	dtype DType
	// safe32/safe64 are the guard of the leaf-hash kernel: the largest
	// magnitude bit pattern (sign cleared) of the dtype with |x| ≤ 2^61·ε,
	// capped at the largest finite value. IEEE magnitudes order like their
	// bit patterns, so bits&^sign ≤ safe means |x| ≤ 2^61·ε; then x is
	// finite and |x/ε| ≤ 2^61·(1+2^-53) < 2^62, so neither clamp of
	// quantizeFinite can fire and its result is int64(Floor(x/ε)) — the
	// expression the kernel computes without the tests.
	safe32 uint32
	safe64 uint64
}

// NewHasher returns a Hasher for the given element type and absolute error
// bound.
func NewHasher(dtype DType, eps float64) (*Hasher, error) {
	if !(eps > 0) || math.IsInf(eps, 0) {
		return nil, fmt.Errorf("errbound: eps %v: %w", eps, ErrBadEpsilon)
	}
	if dtype.Size() == 0 {
		return nil, fmt.Errorf("errbound: unsupported dtype %v", dtype)
	}
	// Ldexp is exact short of overflow (→ +Inf, capped below); the float32
	// conversion rounds to nearest, so step down when it rounded up.
	limit := math.Min(math.Ldexp(eps, 61), math.MaxFloat64)
	f := float32(math.Min(limit, math.MaxFloat32))
	if float64(f) > limit {
		f = math.Nextafter32(f, 0)
	}
	return &Hasher{eps: eps, dtype: dtype,
		safe32: math.Float32bits(f), safe64: math.Float64bits(limit)}, nil
}

// Epsilon returns the hasher's absolute error bound.
func (h *Hasher) Epsilon() float64 { return h.eps }

// DType returns the hasher's element type.
func (h *Hasher) DType() DType { return h.dtype }

// blockElems is the number of quantized elements per hashed block. Cells
// are 8 bytes, so two cells fill one 128-bit Murmur3F block, matching the
// paper's 128-bit block granularity.
const blockElems = 2

// HashChunk hashes one chunk of raw bytes. The chunk length must be a
// multiple of the element size (the final chunk of a checkpoint field is
// padded by the caller's chunking layer). It is allocation-free: quantized
// cells feed the chained Murmur3F state directly as uint64 pairs, with no
// scratch serialization. The digest is bit-identical to the original
// scratch-buffer SumDigest chaining (golden-vector tested).
func (h *Hasher) HashChunk(chunk []byte) (murmur3.Digest, error) {
	esz := h.dtype.Size()
	if len(chunk)%esz != 0 {
		return murmur3.Digest{}, fmt.Errorf("errbound: chunk length %d not a multiple of element size %d", len(chunk), esz)
	}
	var c murmur3.Chain
	if h.dtype == Float32 {
		h.hashChunkF32(&c, chunk)
	} else {
		h.hashChunkF64(&c, chunk)
	}
	return c.Sum(), nil
}

// HashChunks hashes data in consecutive chunk-sized pieces, the last of
// which may be short, into dst[i] for piece i; dst must hold them all. Its
// digests, and the error of its lowest failing piece, are those of a
// HashChunk loop over the pieces. Float32 pieces of full length climb a
// ladder where the CPU has the rungs (hash_amd64.go): sixteen at a time
// through the wide kernel, then two at a time through the pair kernel; the
// odd piece, a short last one and float64 take HashChunk.
func (h *Hasher) HashChunks(dst []murmur3.Digest, data []byte, chunk int) error {
	if chunk <= 0 {
		return fmt.Errorf("errbound: chunk size %d not positive", chunk)
	}
	dst = dst[:(len(data)+chunk-1)/chunk]
	i := 0
	if h.dtype == Float32 && chunk%4 == 0 {
		i = h.hashRunsF32(dst, data, chunk)
	}
	for ; i < len(dst); i++ {
		d, err := h.HashChunk(data[i*chunk : min((i+1)*chunk, len(data))])
		if err != nil {
			return err
		}
		dst[i] = d
	}
	return nil
}

// hashSpan and wideSpan bound one kernel call, because assembly cannot be
// preempted: the pair kernel hashes at most hashSpan of each side, about a
// tenth of a millisecond; the wide kernel at most wideSpan of each of its 16
// chunks, 128 KiB in all, about 60 µs.
const (
	hashSpan = 64 << 10
	wideSpan = 8 << 10
)

// HashChunkScratch is HashChunk; the scratch buffer is ignored. It is kept
// only because bench/probes.go — which a PR claiming a gain may not edit —
// still calls it; the next change to bench/ moves that call to HashChunk
// and deletes this.
func (h *Hasher) HashChunkScratch(chunk, _ []byte) (murmur3.Digest, error) {
	return h.HashChunk(chunk)
}

// Lane masks of the guard. A float64 is tested on its own magnitude; two
// float32s are tested at once as the lanes of one 64-bit load.
const (
	mag64  = ^uint64(0) >> 1            // a float64 without its sign
	mag32  = uint64(0x7fffffff7fffffff) // two float32 lanes without their signs
	high32 = uint64(0x8000000080000000) // the top bit of each lane
)

// hashChunkF32 is the float32 quantize+hash loop: two elements per 128-bit
// block, two blocks per iteration, no call per block. The chain state lives
// in locals across the loop (murmur3.Mix and Fin inline), and one guard per
// iteration replaces the finite test and two clamps per element. With s =
// 2^31 + safe32 in both lanes and m the two magnitudes, each lane of s − m
// lies in [safe32+1, 2^31+safe32], so no borrow crosses the lanes and a
// lane's top bit is set exactly when its magnitude ≤ safe32; the AND of the
// differences keeps both top bits exactly when all four elements pass. An
// iteration that fails — a NaN, an Inf, a cell near a clamp — takes the full
// cellF32 path for its four elements, as do the tail blocks. Advancing the
// slice instead of indexing drops the per-load bounds checks.
func (h *Hasher) hashChunkF32(c *murmur3.Chain, chunk []byte) {
	eps := h.eps
	s := (uint64(h.safe32) | 1<<31) * (1<<32 + 1)
	h1, h2 := c.H1, c.H2
	for len(chunk) >= 16 {
		w1 := binary.LittleEndian.Uint64(chunk)
		w2 := binary.LittleEndian.Uint64(chunk[8:])
		var k1, k2, k3, k4 uint64
		if (s-w1&mag32)&(s-w2&mag32)&high32 == high32 {
			k1 = uint64(int64(math.Floor(float64(math.Float32frombits(uint32(w1))) / eps)))
			k2 = uint64(int64(math.Floor(float64(math.Float32frombits(uint32(w1>>32))) / eps)))
			k3 = uint64(int64(math.Floor(float64(math.Float32frombits(uint32(w2))) / eps)))
			k4 = uint64(int64(math.Floor(float64(math.Float32frombits(uint32(w2>>32))) / eps)))
		} else {
			k1, k2 = cellF32(uint32(w1), eps), cellF32(uint32(w1>>32), eps)
			k3, k4 = cellF32(uint32(w2), eps), cellF32(uint32(w2>>32), eps)
		}
		h1, h2 = murmur3.Mix(h1, h2, k1, k2)
		h1, h2 = murmur3.Fin(h1, h2, 16)
		h1, h2 = murmur3.Mix(h1, h2, k3, k4)
		h1, h2 = murmur3.Fin(h1, h2, 16)
		chunk = chunk[16:]
	}
	c.H1, c.H2 = h1, h2
	if len(chunk) >= 8 {
		c.Block(cellF32(binary.LittleEndian.Uint32(chunk), eps),
			cellF32(binary.LittleEndian.Uint32(chunk[4:]), eps))
		chunk = chunk[8:]
	}
	if len(chunk) >= 4 {
		c.BlockTail(cellF32(binary.LittleEndian.Uint32(chunk), eps))
	}
}

// hashChunkF64 is the float64 quantize+hash loop, structured exactly like
// hashChunkF32; its guard is the OR of the four differences safe64 −
// magnitude, which is non-negative exactly when none is negative (operands
// below 2^63 cannot wrap).
func (h *Hasher) hashChunkF64(c *murmur3.Chain, chunk []byte) {
	eps, safe := h.eps, int64(h.safe64)
	h1, h2 := c.H1, c.H2
	for len(chunk) >= 32 {
		b1 := binary.LittleEndian.Uint64(chunk)
		b2 := binary.LittleEndian.Uint64(chunk[8:])
		b3 := binary.LittleEndian.Uint64(chunk[16:])
		b4 := binary.LittleEndian.Uint64(chunk[24:])
		var k1, k2, k3, k4 uint64
		if (safe-int64(b1&mag64))|(safe-int64(b2&mag64))|(safe-int64(b3&mag64))|(safe-int64(b4&mag64)) >= 0 {
			k1 = uint64(int64(math.Floor(math.Float64frombits(b1) / eps)))
			k2 = uint64(int64(math.Floor(math.Float64frombits(b2) / eps)))
			k3 = uint64(int64(math.Floor(math.Float64frombits(b3) / eps)))
			k4 = uint64(int64(math.Floor(math.Float64frombits(b4) / eps)))
		} else {
			k1, k2 = cellF64(b1, eps), cellF64(b2, eps)
			k3, k4 = cellF64(b3, eps), cellF64(b4, eps)
		}
		h1, h2 = murmur3.Mix(h1, h2, k1, k2)
		h1, h2 = murmur3.Fin(h1, h2, 16)
		h1, h2 = murmur3.Mix(h1, h2, k3, k4)
		h1, h2 = murmur3.Fin(h1, h2, 16)
		chunk = chunk[32:]
	}
	c.H1, c.H2 = h1, h2
	if len(chunk) >= 16 {
		c.Block(cellF64(binary.LittleEndian.Uint64(chunk), eps),
			cellF64(binary.LittleEndian.Uint64(chunk[8:]), eps))
		chunk = chunk[16:]
	}
	if len(chunk) >= 8 {
		c.BlockTail(cellF64(binary.LittleEndian.Uint64(chunk), eps))
	}
}

// cellF32 quantizes one raw little-endian float32 to its cell, as the
// uint64 wire representation the chained blocks hash.
func cellF32(bits uint32, eps float64) uint64 {
	if isFinite32(bits) {
		return uint64(quantizeFinite(float64(math.Float32frombits(bits)), eps))
	}
	return uint64(quantizeSpecial(float64(math.Float32frombits(bits))))
}

// cellF64 quantizes one raw little-endian float64 to its cell.
func cellF64(bits uint64, eps float64) uint64 {
	if isFinite64(bits) {
		return uint64(quantizeFinite(math.Float64frombits(bits), eps))
	}
	return uint64(quantizeSpecial(math.Float64frombits(bits)))
}

// EqualRel reports whether a and b are close under numpy.allclose
// semantics: |a-b| <= atol + rtol·|b|. The paper evaluates with rtol=0
// (absolute bounds only); this generalization exists for baseline parity.
func EqualRel(a, b, atol, rtol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	if math.IsInf(a, 0) || math.IsInf(b, 0) {
		return a == b
	}
	return math.Abs(a-b) <= atol+rtol*math.Abs(b)
}
