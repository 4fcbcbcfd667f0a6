// Command benchkernels measures the throughput of the comparator's four
// hot kernels — leaf hashing, tree construction, tree diffing, and exact
// element-wise comparison — and emits the results as JSON. The checked-in
// BENCH_kernels.json at the repository root is the tracked baseline;
// regenerate it with `make bench-json` and diff it in review to catch
// kernel regressions.
//
// Usage:
//
//	benchkernels [-smoke] [-mintime d] [-o file]
//
// Flags:
//
//	-smoke    tiny sizes and a short measurement window: validates the
//	          runner end-to-end in milliseconds (wired into `make check`)
//	-mintime  minimum measurement window per kernel (default 300ms)
//	-o        output file ("" writes JSON to stdout)
//
// Numbers come from the host wall clock (this is a cmd/ tool; the
// library's virtual clock is not involved) and therefore vary with
// hardware; treat cross-machine deltas as noise and same-machine deltas
// as signal.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/service"
	"repro/internal/synth"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Report is the JSON document benchkernels emits.
type Report struct {
	// GeneratedAt is the RFC 3339 wall-clock timestamp of the run.
	GeneratedAt string `json:"generated_at"`
	// GoVersion and GOMAXPROCS identify the toolchain and parallelism.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Smoke marks reduced-size validation runs; their numbers are not
	// comparable to full runs.
	Smoke bool `json:"smoke,omitempty"`
	// Kernels are the per-kernel measurements, in fixed order.
	Kernels []Kernel `json:"kernels"`
}

// Kernel is one measured kernel.
type Kernel struct {
	// Name identifies the kernel and dtype, e.g. "leaf_hash_f64".
	Name string `json:"name"`
	// Bytes is the data processed per operation (both inputs for the
	// comparison kernels, the covered data for the diff kernel).
	Bytes int64 `json:"bytes"`
	// Iters is the number of operations timed.
	Iters int `json:"iters"`
	// NsPerOp is the mean wall time per operation.
	NsPerOp float64 `json:"ns_per_op"`
	// MBPerS is Bytes·Iters / elapsed, in SI megabytes per second.
	MBPerS float64 `json:"mb_per_s"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchkernels", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		smoke   = fs.Bool("smoke", false, "tiny sizes and window; validates the runner, numbers not comparable")
		minTime = fs.Duration("mintime", 300*time.Millisecond, "minimum measurement window per kernel")
		out     = fs.String("o", "", "output file (empty writes to stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Kernel working-set sizes: a 64 KiB chunk (the default hashing
	// granularity) and a 4 MiB field for the tree-level kernels.
	chunkSize := 64 << 10
	fieldBytes := 4 << 20
	window := *minTime
	if *smoke {
		chunkSize = 4 << 10
		fieldBytes = 64 << 10
		window = 2 * time.Millisecond
	}

	report, err := collect(chunkSize, fieldBytes, window)
	if err != nil {
		fmt.Fprintf(stderr, "benchkernels: %v\n", err)
		return 1
	}
	report.Smoke = *smoke

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchkernels: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchkernels: %v\n", err)
		return 1
	}
	return 0
}

// collect measures every kernel once and assembles the report.
func collect(chunkSize, fieldBytes int, window time.Duration) (*Report, error) {
	const eps = 1e-6
	report := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
	}

	// Deterministic inputs: the synth generator for f32 (and its
	// perturbed twin for the comparison kernels), a sine sweep for f64.
	f32Chunk := synth.FieldF32(chunkSize/4, 1)
	f64Chunk := make([]byte, 0, chunkSize)
	for i := 0; i < chunkSize/8; i++ {
		f64Chunk = binary.LittleEndian.AppendUint64(f64Chunk, math.Float64bits(math.Sin(float64(i)*0.001)))
	}
	// The same sweep in f32 for the ε-compare regimes: at the synth
	// field's magnitudes (up to 100) one float32 ULP already exceeds ε,
	// so no pair of distinct values there is within the bound.
	f32Sine := make([]byte, 0, chunkSize)
	for i := 0; i < chunkSize/4; i++ {
		f32Sine = binary.LittleEndian.AppendUint32(f32Sine, math.Float32bits(float32(math.Sin(float64(i)*0.001))))
	}
	f32Pair := synth.PerturbF32(f32Chunk, synth.DefaultPerturb(2))

	h32, err := errbound.NewHasher(errbound.Float32, eps)
	if err != nil {
		return nil, err
	}
	h64, err := errbound.NewHasher(errbound.Float64, eps)
	if err != nil {
		return nil, err
	}

	report.add(measure("leaf_hash_f32", int64(len(f32Chunk)), window, func() error {
		_, err := h32.HashChunk(f32Chunk)
		return err
	}))
	report.add(measure("leaf_hash_f64", int64(len(f64Chunk)), window, func() error {
		_, err := h64.HashChunk(f64Chunk)
		return err
	}))

	// Tree build: full metadata construction (leaf hashing + interior
	// levels) over one field through the default persistent-pool executor.
	field := synth.FieldF32(fieldBytes/4, 3)
	specs := []ckpt.FieldSpec{{Name: "x", DType: errbound.Float32, Count: int64(fieldBytes / 4)}}
	opts := compare.Options{Epsilon: eps, ChunkSize: chunkSize}
	report.add(measure("tree_build", int64(len(field)), window, func() error {
		_, _, err := compare.Build(specs, [][]byte{field}, opts)
		return err
	}))

	// Tree diff: the pruned BFS over two precomputed trees of a perturbed
	// pair. Bytes is the data the metadata covers — the rate at which the
	// diff answers "which chunks moved" without touching that data.
	fieldB := synth.PerturbF32(field, synth.DefaultPerturb(4))
	ma, _, err := compare.Build(specs, [][]byte{field}, opts)
	if err != nil {
		return nil, err
	}
	mb, _, err := compare.Build(specs, [][]byte{fieldB}, opts)
	if err != nil {
		return nil, err
	}
	ta, tb := ma.Fields[0].Tree, mb.Fields[0].Tree
	exec := service.Default().Executor()
	report.add(measure("tree_diff", int64(len(field)), window, func() error {
		_, _, err := merkle.Diff(ta, tb, ta.DefaultStartLevel(exec.Workers()), exec)
		return err
	}))

	// Element compare: the stage-2 exact verification kernel, one row per
	// data regime so that no tier of the kernel hides another (the
	// unsuffixed rows are the sparse divergence stage 2 sees: the synth
	// twin for f32, 1/64 of the elements for f64).
	var dst []int64
	for _, row := range []struct {
		name string
		h    *errbound.Hasher
		a, b []byte
	}{
		{"element_compare_f32", h32, f32Chunk, f32Pair},
		{"element_compare_f32_identical", h32, f32Sine, f32Sine},
		{"element_compare_f32_jitter", h32, f32Sine, twin(f32Sine, 4, "jitter")},
		{"element_compare_f32_dense", h32, f32Sine, twin(f32Sine, 4, "dense")},
		{"element_compare_f32_streaks", h32, f32Sine, twin(f32Sine, 4, "streaks")},
		{"element_compare_f32_mixed", h32, f32Sine, twin(f32Sine, 4, "mixed")},
		{"element_compare_f64", h64, f64Chunk, twin(f64Chunk, 8, "sparse")},
		{"element_compare_f64_identical", h64, f64Chunk, f64Chunk},
		{"element_compare_f64_jitter", h64, f64Chunk, twin(f64Chunk, 8, "jitter")},
		{"element_compare_f64_dense", h64, f64Chunk, twin(f64Chunk, 8, "dense")},
		{"element_compare_f64_streaks", h64, f64Chunk, twin(f64Chunk, 8, "streaks")},
		{"element_compare_f64_mixed", h64, f64Chunk, twin(f64Chunk, 8, "mixed")},
	} {
		report.add(measure(row.name, 2*int64(len(row.a)), window, func() error {
			var err error
			dst, _, err = row.h.CompareSlices(dst[:0], row.a, row.b)
			return err
		}))
	}

	return report, nil
}

// twin returns a copy of a chunk of esz-byte floats under one regime of
// the ε-compare matrix (internal/errbound's BenchmarkCompareSlices has the
// same rows): "sparse" moves 1/64 of the elements beyond ε, "jitter" moves
// every element by 1–3 float32 ULPs — within ε = 1e-6 for the sine sweep's
// magnitudes below 1 — "dense" moves every element beyond ε, "streaks" does
// so in runs of 16 32-byte blocks between runs of 16 identical ones, and
// "mixed" is jitter with a random tenth of the elements beyond ε (what two
// runs of HACC look like at ε = 1e-5).
func twin(x []byte, esz int, regime string) []byte {
	y := append([]byte(nil), x...)
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
		if esz == 4 {
			v := math.Float32frombits(binary.LittleEndian.Uint32(x[i*4:]) + uint32(ulps))
			binary.LittleEndian.PutUint32(y[i*4:], math.Float32bits(v+float32(delta)))
		} else {
			v := math.Float64frombits(binary.LittleEndian.Uint64(x[i*8:]) + ulps<<29)
			binary.LittleEndian.PutUint64(y[i*8:], math.Float64bits(v+delta))
		}
	}
	return y
}

// add appends a measurement, panicking on measurement errors (a kernel
// error here is a programming error in the runner, not a benchmark
// outcome).
func (r *Report) add(k Kernel, err error) {
	if err != nil {
		panic(err)
	}
	r.Kernels = append(r.Kernels, k)
}

// measure times fn until the window elapses (always at least one call
// after a warmup) and returns the aggregate rate.
func measure(name string, bytes int64, window time.Duration, fn func() error) (Kernel, error) {
	if err := fn(); err != nil { // warmup + error check
		return Kernel{}, fmt.Errorf("%s: %w", name, err)
	}
	var (
		iters   int
		elapsed time.Duration
	)
	start := time.Now()
	for elapsed < window {
		if err := fn(); err != nil {
			return Kernel{}, fmt.Errorf("%s: %w", name, err)
		}
		iters++
		elapsed = time.Since(start)
	}
	nsPerOp := float64(elapsed.Nanoseconds()) / float64(iters)
	return Kernel{
		Name:    name,
		Bytes:   bytes,
		Iters:   iters,
		NsPerOp: nsPerOp,
		MBPerS:  float64(bytes) * float64(iters) / elapsed.Seconds() / 1e6,
	}, nil
}
