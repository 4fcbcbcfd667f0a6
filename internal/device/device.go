// Package device abstracts the compute device that runs the hashing and
// comparison kernels. The paper targets GPUs through Kokkos; here a device
// is (1) an Executor that provides the data-parallel for-loop the kernels
// are written against, and (2) a Model that prices kernel execution and
// host-to-device transfers on a virtual clock so that device-bound results
// (e.g. the CPU-vs-GPU tree-construction gap of Fig. 8) reproduce their
// shape on laptop hardware. See DESIGN.md §2 for the substitution note.
package device

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Executor runs data-parallel loops, the Kokkos parallel_for analogue.
//
// Implementations must be safe for concurrent use.
type Executor interface {
	// For invokes fn(i) for every i in [0, n), possibly concurrently.
	For(n int, fn func(i int))
	// Workers reports the degree of parallelism.
	Workers() int
}

// Coarse is implemented by executors that can dispatch a loop of a few
// heavy work items — one claim per item, no small-loop inlining. For is
// tuned for many light iterations (Pool.For runs n <= 32 inline); a loop
// of eight 1 MiB verify ranges needs the opposite trade.
type Coarse interface {
	ForCoarse(n int, fn func(i int))
}

// ForCoarse runs fn(0..n-1) as heavy work items over exec: through its
// Coarse dispatch when it has one, through For otherwise (Serial runs
// them in order, Parallel already spawns one goroutine per block). A
// single item — or a nil exec — runs on the caller with no dispatch.
func ForCoarse(exec Executor, n int, fn func(i int)) {
	if n <= 1 || exec == nil {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if c, ok := exec.(Coarse); ok {
		c.ForCoarse(n, fn)
		return
	}
	exec.For(n, fn)
}

// Serial is a single-threaded Executor, the "CPU" backend of Fig. 8.
type Serial struct{}

var _ Executor = Serial{}

// For invokes fn(0..n-1) sequentially.
func (Serial) For(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// Workers returns 1.
func (Serial) Workers() int { return 1 }

// Parallel is a worker-pool Executor, the "GPU" backend: all iterations of
// a level run concurrently, with synchronization only between levels —
// matching the paper's level-synchronous tree kernels.
type Parallel struct {
	workers int
}

var _ Executor = (*Parallel)(nil)

// NewParallel returns a Parallel executor with the given worker count;
// workers <= 0 selects GOMAXPROCS.
func NewParallel(workers int) *Parallel {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Parallel{workers: workers}
}

// For invokes fn(0..n-1) across the worker pool, returning when all
// iterations complete.
func (p *Parallel) For(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	w := p.workers
	if w > n {
		w = n
	}
	if w == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Static block partitioning: contiguous ranges keep memory access
	// patterns coalesced, mirroring the flattened-tree layout rationale.
	var wg sync.WaitGroup
	chunk := (n + w - 1) / w
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(start, end)
	}
	wg.Wait()
}

// Workers returns the pool size.
func (p *Parallel) Workers() int { return p.workers }

// Model prices kernels and transfers on the virtual clock. Rates are
// bytes/second of input processed; KernelLaunch is the fixed per-kernel
// dispatch cost (one per tree level, per compare batch, etc.).
type Model struct {
	// Name identifies the device in reports ("CPU", "GPU").
	Name string
	// HashBytesPerSec is the error-bounded hashing rate.
	HashBytesPerSec float64
	// CompareBytesPerSec is the element-wise ε-compare rate.
	CompareBytesPerSec float64
	// TransferBytesPerSec is the host-to-device copy rate.
	TransferBytesPerSec float64
	// NodeHashesPerSec is the interior-node (digest-pair) hashing rate.
	NodeHashesPerSec float64
	// KernelLaunch is the fixed dispatch latency per kernel invocation.
	KernelLaunch time.Duration
}

// CPUModel approximates a single 2.8 GHz EPYC Milan core running the
// hashing kernel: ~1 GB/s quantize+hash, no kernel-launch cost.
func CPUModel() Model {
	return Model{
		Name:                "CPU",
		HashBytesPerSec:     1.0e9,
		CompareBytesPerSec:  2.0e9,
		TransferBytesPerSec: 24.0e9, // irrelevant on-CPU, kept for symmetry
		NodeHashesPerSec:    2.0e7,
		KernelLaunch:        0,
	}
}

// GPUModel approximates one A100: HBM2-bandwidth-bound hashing (~1.3 TB/s
// effective), PCIe-4 x16 transfers, and a ~10 µs kernel-launch latency.
// With these constants the 4-orders-of-magnitude CPU/GPU tree-construction
// gap of Fig. 8 reproduces in virtual time.
func GPUModel() Model {
	return Model{
		Name:                "GPU",
		HashBytesPerSec:     1.3e13,
		CompareBytesPerSec:  1.3e13,
		TransferBytesPerSec: 24.0e9,
		NodeHashesPerSec:    2.0e11,
		KernelLaunch:        10 * time.Microsecond,
	}
}

// HashTime prices hashing n input bytes in one kernel.
func (m Model) HashTime(bytes int64) time.Duration {
	return m.KernelLaunch + rateTime(bytes, m.HashBytesPerSec)
}

// CompareTime prices an element-wise compare over n bytes per run (2n total
// input) in one kernel.
func (m Model) CompareTime(bytes int64) time.Duration {
	return m.KernelLaunch + rateTime(2*bytes, m.CompareBytesPerSec)
}

// CompareRateTime prices the bandwidth component of an element-wise
// compare without a kernel launch — used when many chunks are batched into
// one kernel per pipeline slice, which charges the launch separately.
func (m Model) CompareRateTime(bytes int64) time.Duration {
	return rateTime(2*bytes, m.CompareBytesPerSec)
}

// TransferTime prices a host-to-device copy of n bytes.
func (m Model) TransferTime(bytes int64) time.Duration {
	return rateTime(bytes, m.TransferBytesPerSec)
}

// NodeHashTime prices hashing n interior nodes in one kernel.
func (m Model) NodeHashTime(nodes int64) time.Duration {
	return m.KernelLaunch + rateTime(nodes, m.NodeHashesPerSec)
}

// Validate reports whether the model's rates are usable.
func (m Model) Validate() error {
	if m.HashBytesPerSec <= 0 || m.CompareBytesPerSec <= 0 ||
		m.TransferBytesPerSec <= 0 || m.NodeHashesPerSec <= 0 {
		return fmt.Errorf("device: model %q has a non-positive rate", m.Name)
	}
	return nil
}

func rateTime(units int64, perSec float64) time.Duration {
	if perSec <= 0 || units <= 0 {
		return 0
	}
	return time.Duration(float64(units) / perSec * float64(time.Second))
}
