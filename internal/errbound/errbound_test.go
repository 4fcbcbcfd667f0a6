package errbound

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func f32bytes(vals ...float32) []byte {
	b := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(v))
	}
	return b
}

func f64bytes(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[i*8:], math.Float64bits(v))
	}
	return b
}

func TestQuantizeBasic(t *testing.T) {
	tests := []struct {
		x, eps float64
		want   int64
	}{
		{0, 1, 0},
		{0.5, 1, 0},
		{1.0, 1, 1},
		{-0.5, 1, -1},
		{2.49, 0.5, 4},
		{-2.49, 0.5, -5},
	}
	for _, tt := range tests {
		if got := Quantize(tt.x, tt.eps); got != tt.want {
			t.Errorf("Quantize(%v, %v) = %d, want %d", tt.x, tt.eps, got, tt.want)
		}
	}
}

func TestQuantizeSpecials(t *testing.T) {
	eps := 1e-5
	nan := Quantize(math.NaN(), eps)
	pinf := Quantize(math.Inf(1), eps)
	ninf := Quantize(math.Inf(-1), eps)
	fin := Quantize(1.0, eps)
	cells := map[int64]string{nan: "nan", pinf: "+inf", ninf: "-inf", fin: "finite"}
	if len(cells) != 4 {
		t.Errorf("sentinel cells collide: nan=%d +inf=%d -inf=%d finite=%d", nan, pinf, ninf, fin)
	}
	// Huge finite values clamp but stay distinct from sentinels.
	huge := Quantize(math.MaxFloat64, 1e-300)
	if huge == nan || huge == pinf {
		t.Error("clamped finite cell collides with a sentinel")
	}
}

// The conservative guarantee: differences strictly above eps always change
// the cell.
func TestQuantizeConservativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	epsilons := []float64{1e-3, 1e-4, 1e-5, 1e-6, 1e-7}
	for _, eps := range epsilons {
		for i := 0; i < 20000; i++ {
			a := (rng.Float64() - 0.5) * 200 // typical simulation magnitudes
			delta := eps * (1.0001 + rng.Float64()*10)
			if rng.Intn(2) == 0 {
				delta = -delta
			}
			b := a + delta
			if math.Abs(b-a) <= eps {
				continue // float rounding collapsed the delta; not a violation
			}
			if Quantize(a, eps) == Quantize(b, eps) {
				t.Fatalf("eps=%v: a=%v b=%v (|diff|=%v > eps) share cell %d",
					eps, a, b, math.Abs(b-a), Quantize(a, eps))
			}
		}
	}
}

func TestEqual(t *testing.T) {
	tests := []struct {
		a, b, eps float64
		want      bool
	}{
		{1.0, 1.0, 1e-7, true},
		{1.0, 1.0 + 5e-8, 1e-7, true},
		{1.0, 1.0 + 2e-7, 1e-7, false},
		{math.NaN(), math.NaN(), 1e-7, true},
		{math.NaN(), 1.0, 1e-7, false},
		{math.Inf(1), math.Inf(1), 1e-7, true},
		{math.Inf(1), math.Inf(-1), 1e-7, false},
		{math.Inf(1), 1e308, 1e-7, false},
	}
	for _, tt := range tests {
		if got := Equal(tt.a, tt.b, tt.eps); got != tt.want {
			t.Errorf("Equal(%v, %v, %v) = %v, want %v", tt.a, tt.b, tt.eps, got, tt.want)
		}
	}
}

func TestNewHasherValidation(t *testing.T) {
	if _, err := NewHasher(Float32, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := NewHasher(Float32, -1); err == nil {
		t.Error("eps<0 accepted")
	}
	if _, err := NewHasher(Float32, math.Inf(1)); err == nil {
		t.Error("eps=+inf accepted")
	}
	if _, err := NewHasher(DType(99), 1e-5); err == nil {
		t.Error("bad dtype accepted")
	}
	h, err := NewHasher(Float64, 1e-6)
	if err != nil {
		t.Fatalf("NewHasher: %v", err)
	}
	if h.Epsilon() != 1e-6 || h.DType() != Float64 {
		t.Error("accessors wrong")
	}
}

func TestHashChunkWithinBoundMatches(t *testing.T) {
	h, err := NewHasher(Float32, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	// Perturbations far below eps that do not straddle a grid boundary
	// must hash identically.
	a := f32bytes(0.12345, 7.5001, -3.2503, 100.0004)
	b := f32bytes(0.12349, 7.5004, -3.2504, 100.0001)
	da, err := h.HashChunk(a)
	if err != nil {
		t.Fatal(err)
	}
	db, err := h.HashChunk(b)
	if err != nil {
		t.Fatal(err)
	}
	if da != db {
		t.Error("within-bound same-cell values hashed differently")
	}
}

func TestHashChunkBeyondBoundDiffers(t *testing.T) {
	for _, eps := range []float64{1e-3, 1e-5, 1e-7} {
		h, err := NewHasher(Float32, eps)
		if err != nil {
			t.Fatal(err)
		}
		a := f32bytes(0.5, 1.5, 2.5, 3.5)
		b := f32bytes(0.5, 1.5, float32(2.5+3*eps), 3.5)
		da, _ := h.HashChunk(a)
		db, _ := h.HashChunk(b)
		if da == db {
			t.Errorf("eps=%v: out-of-bound difference not detected by hash", eps)
		}
	}
}

func TestHashChunkF64(t *testing.T) {
	h, err := NewHasher(Float64, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	a := f64bytes(1.0, 2.0, 3.0)
	b := f64bytes(1.0, 2.0+5e-9, 3.0)
	da, _ := h.HashChunk(a)
	db, _ := h.HashChunk(b)
	if da == db {
		t.Error("f64 out-of-bound difference not detected")
	}
}

func TestHashChunkBadLength(t *testing.T) {
	h, _ := NewHasher(Float32, 1e-5)
	if _, err := h.HashChunk(make([]byte, 6)); err == nil {
		t.Error("misaligned chunk accepted")
	}
}

func TestHashChunkOrderSensitive(t *testing.T) {
	h, _ := NewHasher(Float32, 1e-5)
	a := f32bytes(1, 2, 3, 4, 5, 6)
	b := f32bytes(6, 5, 4, 3, 2, 1)
	da, _ := h.HashChunk(a)
	db, _ := h.HashChunk(b)
	if da == db {
		t.Error("chunk hash not order sensitive")
	}
}

func TestHashChunkChainPropagates(t *testing.T) {
	// A difference in the FIRST block must change the final digest even for
	// long chunks (chained seeding).
	h, _ := NewHasher(Float32, 1e-5)
	n := 1024
	va := make([]float32, n)
	vb := make([]float32, n)
	for i := range va {
		va[i] = float32(i)
		vb[i] = float32(i)
	}
	vb[0] += 1 // far above eps
	da, _ := h.HashChunk(f32bytes(va...))
	db, _ := h.HashChunk(f32bytes(vb...))
	if da == db {
		t.Error("first-block difference lost through the chain")
	}
}

func TestCompareSlices(t *testing.T) {
	h, _ := NewHasher(Float32, 1e-3)
	a := f32bytes(0, 1, 2, 3, 4)
	b := f32bytes(0, 1.5, 2, 3, 4.01)
	idx, n, err := h.CompareSlices(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Errorf("compared %d elements, want 5", n)
	}
	if len(idx) != 2 || idx[0] != 1 || idx[1] != 4 {
		t.Errorf("diff indices = %v, want [1 4]", idx)
	}
}

func TestCompareSlicesErrors(t *testing.T) {
	h, _ := NewHasher(Float32, 1e-3)
	if _, _, err := h.CompareSlices(nil, make([]byte, 8), make([]byte, 4)); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, _, err := h.CompareSlices(nil, make([]byte, 6), make([]byte, 6)); err == nil {
		t.Error("misalignment accepted")
	}
}

func TestAllClose(t *testing.T) {
	h, _ := NewHasher(Float32, 1e-3)
	a := f32bytes(1, 2, 3)
	b := f32bytes(1.0005, 2, 3)
	c := f32bytes(1.01, 2, 3)
	if ok, err := h.AllClose(a, b); err != nil || !ok {
		t.Errorf("AllClose(a,b) = %v, %v; want true", ok, err)
	}
	if ok, err := h.AllClose(a, c); err != nil || ok {
		t.Errorf("AllClose(a,c) = %v, %v; want false", ok, err)
	}
	if _, err := h.AllClose(a, make([]byte, 4)); err == nil {
		t.Error("length mismatch accepted")
	}
}

// Property: hash equality is implied by cell-wise equality, and hash
// inequality implies at least one differing cell (i.e. the hash is a pure
// function of the quantized cells).
func TestQuickHashIsFunctionOfCells(t *testing.T) {
	h, err := NewHasher(Float64, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		a := f64bytes(raw...)
		// b: nudge every value within its own cell (tiny epsilon fraction,
		// snapped to stay inside the cell).
		nudged := make([]float64, len(raw))
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				nudged[i] = v
				continue
			}
			cand := v + 1e-7*1e-4
			if Quantize(cand, 1e-4) == Quantize(v, 1e-4) {
				nudged[i] = cand
			} else {
				nudged[i] = v
			}
		}
		b := f64bytes(nudged...)
		da, err1 := h.HashChunk(a)
		db, err2 := h.HashChunk(b)
		return err1 == nil && err2 == nil && da == db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkHashChunk4KBF32(b *testing.B) {
	h, _ := NewHasher(Float32, 1e-5)
	chunk := make([]byte, 4096)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < len(chunk)/4; i++ {
		binary.LittleEndian.PutUint32(chunk[i*4:], math.Float32bits(rng.Float32()*100))
	}
	b.SetBytes(int64(len(chunk)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.HashChunk(chunk); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompareSlices4KB(b *testing.B) {
	h, _ := NewHasher(Float32, 1e-5)
	a := make([]byte, 4096)
	c := make([]byte, 4096)
	b.SetBytes(int64(len(a)))
	b.ResetTimer()
	var dst []int64
	for i := 0; i < b.N; i++ {
		dst = dst[:0]
		if _, _, err := h.CompareSlices(dst, a, c); err != nil {
			b.Fatal(err)
		}
	}
}

func TestEqualRel(t *testing.T) {
	tests := []struct {
		a, b, atol, rtol float64
		want             bool
	}{
		{100, 100.5, 0.1, 0.01, true},   // 0.5 <= 0.1 + 1.0
		{100, 100.5, 0.1, 0.001, false}, // 0.5 > 0.1 + 0.1
		{1, 1, 0, 0, true},
		{0, 1e-9, 1e-8, 0, true},
		{math.NaN(), math.NaN(), 1, 1, true},
		{math.NaN(), 0, 1, 1, false},
		{math.Inf(1), math.Inf(1), 0, 0, true},
		{math.Inf(1), 1e308, 1, 1, false},
	}
	for _, tt := range tests {
		if got := EqualRel(tt.a, tt.b, tt.atol, tt.rtol); got != tt.want {
			t.Errorf("EqualRel(%v, %v, %v, %v) = %v, want %v", tt.a, tt.b, tt.atol, tt.rtol, got, tt.want)
		}
	}
}

func TestAllCloseRel(t *testing.T) {
	a := f32bytes(100, 200, 300)
	b := f32bytes(100.5, 201, 301.5)
	// rtol 1% covers all three; rtol 0.1% does not.
	ok, err := AllCloseRel(a, b, Float32, 0, 0.01)
	if err != nil || !ok {
		t.Errorf("rtol=1%%: %v, %v", ok, err)
	}
	ok, err = AllCloseRel(a, b, Float32, 0, 0.001)
	if err != nil || ok {
		t.Errorf("rtol=0.1%%: %v, %v", ok, err)
	}
	if _, err := AllCloseRel(a, b[:8], Float32, 0, 0.01); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := AllCloseRel(make([]byte, 6), make([]byte, 6), Float32, 0, 0); err == nil {
		t.Error("misalignment accepted")
	}
	if _, err := AllCloseRel(a, b, DType(0), 0, 0); err == nil {
		t.Error("bad dtype accepted")
	}
	// f64 path.
	x := f64bytes(1000, 2000)
	y := f64bytes(1001, 2002)
	ok, err = AllCloseRel(x, y, Float64, 0, 0.002)
	if err != nil || !ok {
		t.Errorf("f64 rtol: %v, %v", ok, err)
	}
}
