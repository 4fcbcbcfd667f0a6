package errbound_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/errbound"
	"repro/internal/hacc"
	"repro/internal/murmur3"
	"repro/internal/synth"
)

// TestKernelAB measures the ε-compare kernel against the per-element
// reference with the two alternating in one process, a millisecond or so
// each: on a shared box whose speed moves severalfold within a minute, two
// `go test -bench` invocations cannot be compared, but neighbours in time
// can. Per row it prints each side's median and best MB/s (both sides'
// bytes) and the median of the per-round ratios. The reference is the same
// code on every commit, so a row's ratio is comparable across commits: to
// compare two kernels, copy this package's _test.go files and testdata to
// the other checkout and run the test there too.
//
// It measures and asserts nothing, so it runs only when named:
//
//	go test -run TestKernelAB -v ./internal/errbound
func TestKernelAB(t *testing.T) {
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), "TestKernelAB") {
		t.Skip("opt-in: name it with -run")
	}
	t.Logf("%-52s %19s %19s %6s", "row", "kernel med/best MB/s", "ref med/best MB/s", "ratio")
	for _, dtype := range []errbound.DType{errbound.Float32, errbound.Float64} {
		h, err := errbound.NewHasher(dtype, errbound.BenchEps)
		if err != nil {
			t.Fatal(err)
		}
		for _, regime := range errbound.BenchRegimes {
			x, y := errbound.BenchPair(t, dtype, regime)
			abCompareSlices(t, fmt.Sprintf("CompareSlices/%v/%s", dtype, regime), h, x, y)
			abRow(t, fmt.Sprintf("AllClose/%v/%s", dtype, regime), 2*len(x),
				func() { sinkOK, _ = h.AllClose(x, y) },
				func() { sinkOK = errbound.ReferenceAllClose(h, x, y) })
		}
	}
	// Two runs of one nondeterministic code, not one state captured twice:
	// few words are bit-equal and most differ by a few ULPs.
	x, y := haccPair(t)
	for _, eps := range []float64{1e-4, 1e-7} {
		h, err := errbound.NewHasher(errbound.Float32, eps)
		if err != nil {
			t.Fatal(err)
		}
		abCompareSlices(t, fmt.Sprintf("CompareSlices/hacc/eps=%g", eps), h, x, y)
	}
}

// TestLeafAB measures the leaf hash the capture path runs, HashChunks over a
// whole field, alternating in one process like TestKernelAB: float32 and
// float64, 4 KiB and 64 KiB chunks, a synthetic field (1 MiB of float32) and
// an internal/hacc snapshot (all seven fields); float64 rows widen the same
// values. The first rows set HashChunks, on the rungs this CPU has, beside
// the HashChunk loop it replaced; the loop is the same code on every commit,
// so their ratio column carries from one checkout to another. Then, float32
// only, the pair kernel forced (wideF32 cleared) beside the loop, and the
// wide kernel beside the forced pair kernel; a CPU without the wide kernel
// logs those rows as skipped. Each row names the rungs its first side takes
// (pieces per rung). It is opt-in:
//
//	go test -run TestLeafAB -v ./internal/errbound
func TestLeafAB(t *testing.T) {
	if f := flag.Lookup("test.run"); f == nil || !strings.Contains(f.Value.String(), "TestLeafAB") {
		t.Skip("opt-in: name it with -run")
	}
	x, _ := haccPair(t)
	fields := []struct {
		name string
		f32  []byte
	}{{"synth", synth.FieldF32(1<<18, 1)}, {"hacc", x}}
	t.Logf("%-52s %19s %19s %6s", "row (rungs)", "first med/best MB/s", "second med/best", "ratio")
	for _, dtype := range []errbound.DType{errbound.Float32, errbound.Float64} {
		h, err := errbound.NewHasher(dtype, errbound.BenchEps)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{4 << 10, 64 << 10} {
			for _, f := range fields {
				data := f.f32
				if dtype == errbound.Float64 {
					data = widen(f.f32)
				}
				dst := make([]murmur3.Digest, (len(data)+chunk-1)/chunk)
				loop := func() {
					for off := 0; off < len(data); off += chunk {
						dst[off/chunk], sinkErr = h.HashChunk(data[off:min(off+chunk, len(data))])
					}
				}
				row := func(first, second string, ref func()) {
					name := fmt.Sprintf("%s/%v/%dKiB/%s", first, dtype, chunk>>10, f.name)
					ok, restore := errbound.ForceLeafRung(first)
					rungs := errbound.LeafRungs(dtype, len(data), chunk)
					restore()
					if !ok {
						t.Logf("%-52s skipped: no %s kernel in this build or on this CPU", name, first)
						return
					}
					if second != "" {
						name += " vs " + second
					}
					abRow(t, fmt.Sprintf("%s (%s)", name, rungs), len(data), onRung(first, h, dst, data, chunk), ref)
				}
				row("HashChunks", "", loop)
				if dtype == errbound.Float32 {
					row("pair", "", loop)
					row("wide", "pair", onRung("pair", h, dst, data, chunk))
				}
			}
		}
	}
}

// onRung returns HashChunks over data with the float32 ladder forced to
// start at rung (see errbound.ForceLeafRung).
func onRung(rung string, h *errbound.Hasher, dst []murmur3.Digest, data []byte, chunk int) func() {
	return func() {
		_, restore := errbound.ForceLeafRung(rung)
		sinkErr = h.HashChunks(dst, data, chunk)
		restore()
	}
}

// widen returns float32 elements as float64 ones.
func widen(f32 []byte) []byte {
	out := make([]byte, 0, 2*len(f32))
	for i := 0; i+4 <= len(f32); i += 4 {
		v := float64(math.Float32frombits(binary.LittleEndian.Uint32(f32[i:])))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
}

var (
	sinkIdx []int64
	sinkOK  bool
	sinkErr error
)

func abCompareSlices(t *testing.T, name string, h *errbound.Hasher, x, y []byte) {
	dst := make([]int64, 0, len(x)/4)
	abRow(t, name, 2*len(x),
		func() { sinkIdx, _, _ = h.CompareSlices(dst[:0], x, y) },
		func() { sinkIdx, _ = errbound.ReferenceCompareSlices(h, dst[:0], x, y) })
}

// abRow alternates the two sides for a fixed number of rounds, each round a
// burst of calls sized to about a millisecond of the reference.
func abRow(t *testing.T, name string, bytes int, kernel, ref func()) {
	const rounds = 200
	reps := 1
	for t0 := time.Now(); time.Since(t0) < time.Millisecond; reps++ {
		ref()
	}
	mbps := func(fn func()) float64 {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		return float64(bytes) * float64(reps) / time.Since(t0).Seconds() / 1e6
	}
	var k, r, ratio []float64
	for i := 0; i < rounds; i++ {
		a, b := mbps(kernel), mbps(ref)
		k, r, ratio = append(k, a), append(r, b), append(ratio, a/b)
	}
	slices.Sort(k)
	slices.Sort(r)
	slices.Sort(ratio)
	t.Logf("%-52s %9.0f / %7.0f %9.0f / %7.0f  ×%.2f", name, k[rounds/2], k[rounds-1], r[rounds/2], r[rounds-1], ratio[rounds/2])
}

// haccPair runs the HACC proxy twice with nondeterministic force
// accumulation and returns the two snapshots, fields concatenated.
func haccPair(t *testing.T) (x, y []byte) {
	run := func(seed int64) []byte {
		cfg := hacc.DefaultConfig(20_000)
		cfg.Nondet, cfg.NondetSeed = true, seed
		sim, err := hacc.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.Run(20); err != nil {
			t.Fatal(err)
		}
		return slices.Concat(sim.Snapshot()...)
	}
	return run(1), run(2)
}
