package errbound

import (
	"encoding/binary"
	"math"
)

// The per-element ε loops the block kernel of compare.go replaced,
// kept here as the oracle: one element at a time, finiteness mask first,
// every non-finite pair through the exact Equal/EqualRel. The kernel must
// return the same indices in the same order, the same count and the same
// boolean on every input (kernel_test.go, FuzzCompareSlices), and must not
// be slower on any row of the benchmark matrix (bench_test.go).

func referenceCompareSlices(h *Hasher, dst []int64, a, b []byte) ([]int64, int) {
	n := len(a) / h.dtype.Size()
	if h.dtype == Float32 {
		for i := 0; i < n; i++ {
			if !equalF32(binary.LittleEndian.Uint32(a[i*4:]), binary.LittleEndian.Uint32(b[i*4:]), h.eps) {
				dst = append(dst, int64(i))
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if !equalF64(binary.LittleEndian.Uint64(a[i*8:]), binary.LittleEndian.Uint64(b[i*8:]), h.eps) {
				dst = append(dst, int64(i))
			}
		}
	}
	return dst, n
}

// equalF64 is Equal on raw little-endian float64 bits with the finite fast
// path hoisted: when both values are finite the NaN/Inf cascade reduces to
// a single |a-b| <= ε test.
func equalF64(ba, bb uint64, eps float64) bool {
	if isFinite64(ba) && isFinite64(bb) {
		return math.Abs(math.Float64frombits(ba)-math.Float64frombits(bb)) <= eps
	}
	return Equal(math.Float64frombits(ba), math.Float64frombits(bb), eps)
}

// equalF32 is equalF64 for raw float32 bits (compared in float64, exactly
// like the generic path).
func equalF32(ba, bb uint32, eps float64) bool {
	if isFinite32(ba) && isFinite32(bb) {
		return math.Abs(float64(math.Float32frombits(ba))-float64(math.Float32frombits(bb))) <= eps
	}
	return Equal(float64(math.Float32frombits(ba)), float64(math.Float32frombits(bb)), eps)
}

func referenceAllClose(h *Hasher, a, b []byte) bool {
	n := len(a) / h.dtype.Size()
	if h.dtype == Float32 {
		for i := 0; i < n; i++ {
			if !equalF32(binary.LittleEndian.Uint32(a[i*4:]), binary.LittleEndian.Uint32(b[i*4:]), h.eps) {
				return false
			}
		}
	} else {
		for i := 0; i < n; i++ {
			if !equalF64(binary.LittleEndian.Uint64(a[i*8:]), binary.LittleEndian.Uint64(b[i*8:]), h.eps) {
				return false
			}
		}
	}
	return true
}

func referenceAllCloseRel(a, b []byte, dtype DType, atol, rtol float64) bool {
	n := len(a) / dtype.Size()
	for i := 0; i < n; i++ {
		var va, vb float64
		if dtype == Float32 {
			va = float64(math.Float32frombits(binary.LittleEndian.Uint32(a[i*4:])))
			vb = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
		} else {
			va = math.Float64frombits(binary.LittleEndian.Uint64(a[i*8:]))
			vb = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
		}
		if !EqualRel(va, vb, atol, rtol) {
			return false
		}
	}
	return true
}
