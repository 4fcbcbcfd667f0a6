package errbound_test

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/errbound"
	"repro/internal/hacc"
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
	t.Logf("%-32s %19s %19s %6s", "row", "kernel med/best MB/s", "ref med/best MB/s", "ratio")
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

var (
	sinkIdx []int64
	sinkOK  bool
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
	t.Logf("%-32s %9.0f / %7.0f %9.0f / %7.0f  ×%.2f", name, k[rounds/2], k[rounds-1], r[rounds/2], r[rounds-1], ratio[rounds/2])
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
