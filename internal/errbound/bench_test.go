package errbound

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/murmur3"
)

// benchChunk builds a deterministic 64 KiB chunk of the given dtype.
func benchChunk(b testing.TB, dtype DType) []byte {
	b.Helper()
	const n = 64 << 10 / 8
	out := make([]byte, 0, n*dtype.Size())
	for i := 0; i < n; i++ {
		v := math.Sin(float64(i) * 0.001)
		if dtype == Float32 {
			out = binary.LittleEndian.AppendUint32(out, math.Float32bits(float32(v)))
		} else {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// BenchmarkHashChunk measures the fused quantize+hash leaf kernel, the
// comparator's hot path (bytes/sec is the headline kernel metric).
func BenchmarkHashChunk(b *testing.B) {
	for _, dtype := range []DType{Float32, Float64} {
		b.Run(dtype.String(), func(b *testing.B) {
			chunk := benchChunk(b, dtype)
			h, err := NewHasher(dtype, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(chunk)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := h.HashChunk(chunk); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHashChunkReference measures the seed two-phase implementation
// (quantize into a scratch buffer, SumDigest per block) that the fused
// kernel replaced — kept runnable so benchstat can track the fused/seed
// ratio.
func BenchmarkHashChunkReference(b *testing.B) {
	for _, dtype := range []DType{Float32, Float64} {
		b.Run(dtype.String(), func(b *testing.B) {
			chunk := benchChunk(b, dtype)
			h, err := NewHasher(dtype, 1e-6)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(chunk)))
			var scratch [blockElems * 8]byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := referenceHashChunkScratch(h, chunk, scratch[:]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// benchRegimes are the data regimes the ε-compare kernels are measured on:
// the extremes of each tier and of the routing between them, plus the mixes
// stage 2 actually sees. A kernel that is fast on one and slow on another
// shows it here, and so would a shortcut for bit-equal words that a later
// change adds. (TestKernelAB measures the same rows with kernel and
// reference alternating in one process, the only comparison this box's
// moving speed allows.)
var benchRegimes = []string{
	"identical", // every word bit-equal: accepted on d = 0
	"sparse",    // 1/64 of the elements beyond ε, the rest bit-equal
	"jitter",    // every element 1–3 ULP apart, (nearly) all within ε: accepting tiers only
	"dense",     // every element beyond ε: tier 2 and an append each
	"streaks",   // runs of 16 dense blocks between runs of 16 identical ones
	"mixed",     // jitter, with 1/10 of the elements at random beyond ε
}

// benchEps is within a few float32 ULPs of the jitter regime's largest
// difference (3 ULP of a value below 1 is 1.8e-7), so no tier can decide
// on magnitude alone.
const benchEps = 2e-7

// benchPair returns a benchChunk and its twin under the regime.
func benchPair(b testing.TB, dtype DType, regime string) (x, y []byte) {
	b.Helper()
	x = benchChunk(b, dtype)
	y = append([]byte(nil), x...)
	esz := dtype.Size()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < len(x)/esz; i++ {
		var ulps uint64
		var delta float64
		switch regime {
		case "sparse":
			if i%64 == 17 {
				delta = 1e-3
			}
		case "jitter":
			ulps = uint64(1 + i%3)
		case "dense":
			delta = 1e-3
		case "streaks":
			if i*esz/32/16%2 == 1 {
				delta = 1e-3
			}
		case "mixed":
			ulps = uint64(1 + i%3)
			if rng.Intn(10) == 0 {
				delta = 1e-3
			}
		}
		if dtype == Float32 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(x[i*4:]) + uint32(ulps))
			binary.LittleEndian.PutUint32(y[i*4:], math.Float32bits(v+float32(delta)))
		} else {
			// 1–3 float32 ULPs, so both dtypes jitter by the same distance.
			v := math.Float64frombits(binary.LittleEndian.Uint64(x[i*8:]) + ulps<<29)
			binary.LittleEndian.PutUint64(y[i*8:], math.Float64bits(v+delta))
		}
	}
	return x, y
}

// benchMatrix runs fn over dtype × regime with the bytes of both sides as
// the throughput base.
func benchMatrix(b *testing.B, fn func(b *testing.B, h *Hasher, x, y []byte)) {
	for _, dtype := range []DType{Float32, Float64} {
		for _, regime := range benchRegimes {
			b.Run(dtype.String()+"/"+regime, func(b *testing.B) {
				x, y := benchPair(b, dtype, regime)
				h, err := NewHasher(dtype, benchEps)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(2 * int64(len(x)))
				b.ResetTimer()
				fn(b, h, x, y)
			})
		}
	}
}

var (
	sinkIdx []int64
	sinkOK  bool
)

// BenchmarkCompareSlices measures the stage-2 verification kernel on every
// regime; BenchmarkCompareSlicesReference is the per-element loop it
// replaced, on the same inputs (the kernel must not lose a row).
func BenchmarkCompareSlices(b *testing.B) {
	benchMatrix(b, func(b *testing.B, h *Hasher, x, y []byte) {
		dst := make([]int64, 0, len(x)/h.dtype.Size())
		for i := 0; i < b.N; i++ {
			var err error
			if sinkIdx, _, err = h.CompareSlices(dst[:0], x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkCompareSlicesReference(b *testing.B) {
	benchMatrix(b, func(b *testing.B, h *Hasher, x, y []byte) {
		dst := make([]int64, 0, len(x)/h.dtype.Size())
		for i := 0; i < b.N; i++ {
			sinkIdx, _ = referenceCompareSlices(h, dst[:0], x, y)
		}
	})
}

// BenchmarkAllClose measures the boolean baseline kernel; on the sparse,
// dense, streaks and mixed regimes it exits at the first element beyond ε
// (elements 17, 0, 128 and 7 of a float32 chunk).
func BenchmarkAllClose(b *testing.B) {
	benchMatrix(b, func(b *testing.B, h *Hasher, x, y []byte) {
		for i := 0; i < b.N; i++ {
			var err error
			if sinkOK, err = h.AllClose(x, y); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAllCloseReference(b *testing.B) {
	benchMatrix(b, func(b *testing.B, h *Hasher, x, y []byte) {
		for i := 0; i < b.N; i++ {
			sinkOK = referenceAllClose(h, x, y)
		}
	})
}

// BenchmarkChainBlock isolates the streaming hasher's per-block cost from
// quantization.
func BenchmarkChainBlock(b *testing.B) {
	var c murmur3.Chain
	b.SetBytes(16)
	for i := 0; i < b.N; i++ {
		c.Block(uint64(i), uint64(i)^0x9e3779b97f4a7c15)
	}
}
