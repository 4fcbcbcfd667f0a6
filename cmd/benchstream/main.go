// Command benchstream measures the comparator's stage-2 verification
// pipeline end to end — scattered candidate-chunk reads from two run files
// through an internal/aio backend into the internal/stream pipeline — and
// emits the results as JSON. The checked-in BENCH_stream.json at the
// repository root is the tracked baseline; regenerate it with
// `make bench-json` and diff it in review to catch pipeline regressions.
//
// The workload is the paper's clustered-divergence pattern: candidate
// chunks come in bursts of adjacent 4 KiB chunks separated by large clean
// regions, so read coalescing can collapse each burst into one PFS op.
// Every variant streams the identical chunk set; they differ only in the
// I/O engine and pipeline depth:
//
//	plain_fresh_serial_depth{1,2}  run A and run B priced serially
//	                            (aio.Legacy), depth 1 the speedup baseline
//	ring_pair_depth{1,2,4}      A+B priced as one overlapped batch,
//	                            depth-N pipeline virtual time
//	ring_pair_coalesce_depth{2,4}  the default compare path: + coalescing
//
// Usage:
//
//	benchstream [-smoke] [-o file]
//
// Flags:
//
//	-smoke  tiny files and chunk counts: validates the runner end-to-end
//	        in milliseconds (wired into `make check`)
//	-o      output file ("" writes JSON to stdout)
//
// The headline column is pipeline_virtual_ms (deterministic, from the
// cost models); wall_ms comes from the host clock and varies with
// hardware. allocs_per_slice is measured on a warmed run and should be 0
// for every variant.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/pfs"
	"repro/internal/stream"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Report is the JSON document benchstream emits.
type Report struct {
	// GeneratedAt is the RFC 3339 wall-clock timestamp of the run.
	GeneratedAt string `json:"generated_at"`
	// GoVersion and GOMAXPROCS identify the toolchain and parallelism.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Smoke marks reduced-size validation runs; their numbers are not
	// comparable to full runs.
	Smoke bool `json:"smoke,omitempty"`
	// Workload describes the candidate-chunk pattern every variant reads.
	Workload Workload `json:"workload"`
	// Pipelines are the per-variant measurements, in fixed order; the
	// first entry is the speedup baseline.
	Pipelines []Pipeline `json:"pipelines"`
}

// Workload describes the shared benchmark input.
type Workload struct {
	// FileBytes is the size of each run's checkpoint file.
	FileBytes int64 `json:"file_bytes"`
	// ChunkBytes is the candidate chunk size.
	ChunkBytes int `json:"chunk_bytes"`
	// Chunks is the number of candidate chunk pairs streamed.
	Chunks int `json:"chunks"`
	// Clusters is the number of bursts the chunks are grouped into
	// (Chunks/Clusters adjacent chunks per burst).
	Clusters int `json:"clusters"`
	// SliceBytes is the pipeline slice size per run.
	SliceBytes int `json:"slice_bytes"`
}

// Pipeline is one measured variant.
type Pipeline struct {
	// Name identifies the variant, e.g. "ring_pair_coalesce_depth2".
	Name string `json:"name"`
	// Backend is the aio backend's self-reported name.
	Backend string `json:"backend"`
	// Depth is the stream pipeline depth.
	Depth int `json:"depth"`
	// Slices is the number of pipeline slices executed.
	Slices int `json:"slices"`
	// ReadOps is the cold PFS operation count (coalescing shrinks it).
	ReadOps int `json:"read_ops"`
	// BytesRead counts requested bytes from both files.
	BytesRead int64 `json:"bytes_read"`
	// PipelineVirtualMs is the overlapped end-to-end virtual time — the
	// headline, deterministic number.
	PipelineVirtualMs float64 `json:"pipeline_virtual_ms"`
	// IOVirtualMs and ComputeVirtualMs are the un-overlapped stage sums.
	IOVirtualMs      float64 `json:"io_virtual_ms"`
	ComputeVirtualMs float64 `json:"compute_virtual_ms"`
	// WallMs is the measured wall time of the cold run (hardware noise).
	WallMs float64 `json:"wall_ms"`
	// AllocsPerSlice is the steady-state heap allocation rate: the
	// marginal allocations per additional slice, measured on warmed runs
	// by differencing a full run against a half run (which cancels the
	// per-run fixed costs: the reader, the verifier and the buffer pool
	// itself).
	AllocsPerSlice float64 `json:"allocs_per_slice"`
	// SpeedupVsBaseline is baseline virtual time / this virtual time.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchstream", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		smoke = fs.Bool("smoke", false, "tiny sizes; validates the runner, numbers not comparable")
		out   = fs.String("o", "", "output file (empty writes to stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// Full workload: two 64 MiB files, 2048 candidate chunks of 4 KiB in
	// 256 bursts of 8 — 8 MiB of candidates per run through 1 MiB slices.
	w := Workload{
		FileBytes:  64 << 20,
		ChunkBytes: 4 << 10,
		Chunks:     2048,
		Clusters:   256,
		SliceBytes: 1 << 20,
	}
	if *smoke {
		w = Workload{
			FileBytes:  4 << 20,
			ChunkBytes: 4 << 10,
			Chunks:     128,
			Clusters:   16,
			SliceBytes: 128 << 10,
		}
	}

	report, err := collect(w)
	if err != nil {
		fmt.Fprintf(stderr, "benchstream: %v\n", err)
		return 1
	}
	report.Smoke = *smoke

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "benchstream: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if *out == "" {
		_, err = stdout.Write(data)
	} else {
		err = os.WriteFile(*out, data, 0o644)
	}
	if err != nil {
		fmt.Fprintf(stderr, "benchstream: %v\n", err)
		return 1
	}
	return 0
}

// variant pairs a pipeline configuration with its backend factory.
type variant struct {
	name    string
	depth   int
	backend func() aio.Backend
}

func collect(w Workload) (*Report, error) {
	report := &Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Workload:    w,
	}

	dir, err := os.MkdirTemp("", "benchstream")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	store, err := pfs.NewStore(dir, pfs.LustreModel())
	if err != nil {
		return nil, err
	}
	fA, fB, err := writeRuns(store, w.FileBytes)
	if err != nil {
		return nil, err
	}
	defer fA.Close()
	defer fB.Close()
	chunks := w.Chunks / w.Clusters * w.Clusters
	half, full := clusteredPlan(fA, fB, w, chunks/2), clusteredPlan(fA, fB, w, chunks)
	dev := device.GPUModel()

	const queueDepth = 64
	uring := func() aio.Backend { return aio.NewUring(queueDepth) }
	coalescing := func() aio.Backend { return aio.NewCoalescing(aio.NewUring(queueDepth), 16<<10) }
	legacy := func() aio.Backend { return aio.Legacy{QueueDepth: queueDepth} }
	variants := []variant{
		{"plain_fresh_serial_depth1", 1, legacy},
		{"plain_fresh_serial_depth2", 2, legacy},
		{"ring_pair_depth1", 1, uring},
		{"ring_pair_depth2", 2, uring},
		{"ring_pair_depth4", 4, uring},
		{"ring_pair_coalesce_depth2", 2, coalescing},
		{"ring_pair_coalesce_depth4", 4, coalescing},
	}

	for _, v := range variants {
		backend := v.backend()
		p, err := measure(v, backend, store, half, full, w, dev)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.name, err)
		}
		if n := len(report.Pipelines); n > 0 {
			p.SpeedupVsBaseline = report.Pipelines[0].PipelineVirtualMs / p.PipelineVirtualMs
		} else {
			p.SpeedupVsBaseline = 1
		}
		report.Pipelines = append(report.Pipelines, p)
	}
	return report, nil
}

// measure runs one variant: a cold run for the virtual numbers, then a
// warm run bracketed by MemStats for the steady-state allocation rate.
func measure(v variant, backend aio.Backend, store *pfs.Store, half, full *stream.Plan, w Workload, dev device.Model) (Pipeline, error) {
	// Window buffers recycle through an arena that lives as long as the
	// variant.
	cfg := stream.Config{Backend: backend, Arena: aio.NewArena(0), Device: dev, SliceBytes: w.SliceBytes, Depth: v.depth}
	compute := func(_ int, _ stream.Job, a, b []byte) (time.Duration, error) {
		return dev.CompareRateTime(int64(len(a))), nil
	}

	store.EvictAll()
	stats, err := stream.Run(context.Background(), full, cfg, compute)
	if err != nil {
		return Pipeline{}, err
	}

	// Warm allocation pass: page cache, ring, buffer pools, and scratch
	// arenas are all at their high-water marks after one more run.
	warm, err := stream.Run(context.Background(), full, cfg, compute)
	if err != nil {
		return Pipeline{}, err
	}
	run := func(plan *stream.Plan) error {
		_, err := stream.Run(context.Background(), plan, cfg, compute)
		return err
	}
	allocsHalf, err := countAllocs(func() error { return run(half) })
	if err != nil {
		return Pipeline{}, err
	}
	allocsFull, err := countAllocs(func() error { return run(full) })
	if err != nil {
		return Pipeline{}, err
	}
	extraSlices := float64(warm.Slices) / 2
	allocsPerSlice := float64(allocsFull-allocsHalf) / extraSlices
	if allocsPerSlice < 0 {
		allocsPerSlice = 0
	}

	return Pipeline{
		Name:              v.name,
		Backend:           backend.Name(),
		Depth:             v.depth,
		Slices:            stats.Slices,
		ReadOps:           stats.ReadCost.Ops,
		BytesRead:         stats.BytesRead,
		PipelineVirtualMs: ms(stats.PipelineVirtual),
		IOVirtualMs:       ms(stats.IOVirtual),
		ComputeVirtualMs:  ms(stats.ComputeVirtual),
		WallMs:            ms(stats.Wall),
		AllocsPerSlice:    allocsPerSlice,
	}, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// countAllocs measures the heap allocations of one execution of fn,
// taking the minimum over a few repetitions to shake off GC and runtime
// noise.
func countAllocs(fn func() error) (uint64, error) {
	var best uint64
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := fn(); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&after)
		if n := after.Mallocs - before.Mallocs; i == 0 || n < best {
			best = n
		}
	}
	return best, nil
}

// writeRuns creates the two run files with cheap deterministic content and
// evicts them from the page cache.
func writeRuns(store *pfs.Store, size int64) (*pfs.File, *pfs.File, error) {
	block := make([]byte, 1<<20)
	open := func(name string, seed byte) (*pfs.File, error) {
		for i := range block {
			block[i] = byte(i>>8) ^ byte(i)*7 ^ seed
		}
		wtr, err := store.Create(name)
		if err != nil {
			return nil, err
		}
		for written := int64(0); written < size; written += int64(len(block)) {
			if _, err := wtr.Write(block); err != nil {
				return nil, err
			}
		}
		if err := wtr.Close(); err != nil {
			return nil, err
		}
		store.Evict(name)
		return store.Open(name)
	}
	fA, err := open("runA.ckpt", 0x11)
	if err != nil {
		return nil, nil, err
	}
	fB, err := open("runB.ckpt", 0x22)
	if err != nil {
		return nil, nil, err
	}
	return fA, fB, nil
}

// clusteredPlan lays the first n candidate chunks out in bursts of adjacent
// chunks separated by clean regions — the spatially correlated divergence
// pattern coalescing exploits. Run B's bursts sit at a fixed offset from
// run A's so the two request sets differ.
func clusteredPlan(fA, fB *pfs.File, w Workload, n int) *stream.Plan {
	perCluster := w.Chunks / w.Clusters
	stride := w.FileBytes / int64(w.Clusters)
	plan := stream.NewPlan(fA, fB)
	shift := int64(perCluster * w.ChunkBytes) // B's bursts trail A's by one burst length
	for i := 0; i < n; i++ {
		off := int64(i/perCluster)*stride + int64(i%perCluster*w.ChunkBytes)
		plan.Add(i, 0, off, 1, off+shift, w.ChunkBytes)
	}
	return plan
}
