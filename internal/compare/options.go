// Package compare implements the checkpoint-comparison runtime, the
// paper's primary contribution: error-bounded Merkle metadata construction
// at checkpoint time, and the two-stage comparison (pruned tree diff, then
// streamed element-wise verification of candidate chunks) that identifies
// every intermediate value differing between two runs by more than ε.
// The Direct and AllClose baselines of §3.2 live here too, sharing the
// same substrates so comparisons are apples-to-apples.
package compare

import (
	"fmt"
	"math"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/errbound"
	"repro/internal/retry"
)

// Options parameterizes metadata construction and comparison.
type Options struct {
	// Epsilon is the absolute error bound ε; values differing by more
	// than ε count as divergent. Required.
	Epsilon float64
	// ChunkSize is the hashing/verification granularity in bytes
	// (default 64 KiB; the paper sweeps 4 KiB–512 KiB).
	ChunkSize int
	// Exec runs the data-parallel kernels. A session on a plane built by
	// service.New gets that plane's pool injected here; left nil it is
	// device.Default(), the process-wide pool (GOMAXPROCS workers, started
	// once, reused across every tree level and compare batch) that
	// service.Default() serves from too. Pass device.Serial{} for the
	// single-threaded "CPU" backend, or a device.NewPool of your own to
	// bound parallelism per comparison.
	Exec device.Executor
	// Device prices kernels and transfers (default: GPU model).
	Device device.Model
	// Backend prices the scattered reads, in the runs CoalesceMaxGap
	// merges them into. Left nil it is aio.Default(), the process-wide
	// io_uring-style engine (queue depth 256), on a direct call and on
	// every service plane alike.
	Backend aio.Backend
	// SliceBytes is the stage-2 window size: the bytes of any one
	// compared file a pipeline window holds (default 8 MiB; of either
	// side, where a differential comparison reads both from the one
	// pack). Pair and group comparisons alike stream through windows of
	// this size.
	SliceBytes int
	// Depth is the depth of the verification pipeline the virtual clock
	// prices: windows in flight between I/O and compute (default 2,
	// classic double buffering; 1 serializes I/O against compute). It
	// holds no buffers: a comparison of N files holds at most
	// N × (SliceBytes + one chunk) bytes of stage-2 buffers.
	Depth int
	// CoalesceMaxGap controls read coalescing, whatever the Backend: the
	// largest hole in bytes bridged between two candidate chunks of one
	// file in a stage-2 window, which then price as one read (0 selects
	// the 16 KiB default; negative prices every chunk alone).
	CoalesceMaxGap int
	// StartLevel is the tree-diff BFS start level; negative selects the
	// mid-tree heuristic (default).
	StartLevel int
	// SetupVirtual is the fixed setup cost charged per comparison on the
	// virtual clock (buffer allocation, device context); default 50 ms.
	SetupVirtual time.Duration
	// Fields optionally restricts the comparison to the named checkpoint
	// fields (nil compares everything). Unknown names are an error.
	Fields []string
	// Retry is the storage retry policy: engine steps and stage-2 batch
	// reads re-issue on Transient-classified errors with capped
	// exponential backoff (deterministic jitter, priced on the virtual
	// clock — never slept). The zero value selects retry.Default()
	// (3 attempts); a negative MaxAttempts disables retries, which
	// normalizes to a one-attempt policy.
	Retry retry.Policy
	// Memo, when set, carries stage-2 verdicts across differential (CAS)
	// comparisons: a chunk-pair verdict proven once for a digest pair is
	// replayed on later CompareDiff/GroupCompareDiff calls instead of
	// re-reading and re-comparing. Only the differential planners consult
	// it (a digest names a unique byte string only inside the shared
	// store), and its ε must match Epsilon. Safe for concurrent use.
	Memo *CASMemo
	// Degrade enables the degradation ladder for Merkle-path comparisons:
	// a stage-2 read that exhausts its retries degrades the affected pair
	// to a metadata-only verdict instead of failing the plan, and a chunk
	// whose bytes fail leaf-hash integrity verification gets one re-read
	// before being counted Unverified. Degraded results are never
	// reported as clean matches — Result.Identical and
	// GroupReport.Reproducible return false. Default false: any storage
	// error (after retries) fails the comparison.
	Degrade bool
}

// withDefaults returns a copy with unset fields defaulted.
func (o Options) withDefaults() Options {
	if o.ChunkSize <= 0 {
		o.ChunkSize = 64 << 10
	}
	if o.Exec == nil {
		o.Exec = device.Default()
	}
	if o.Device.HashBytesPerSec == 0 {
		o.Device = device.GPUModel()
	}
	if o.Backend == nil {
		// Deep queue: Lustre-style PFS sustain high IOPS when many
		// scattered reads are in flight, which is what io_uring enables.
		// The persistent engine is reused across comparisons.
		o.Backend = aio.Default()
	}
	if o.SliceBytes <= 0 {
		o.SliceBytes = 8 << 20
	}
	if o.Depth < 1 {
		o.Depth = 2
	}
	if o.StartLevel == 0 {
		o.StartLevel = -1
	}
	if o.SetupVirtual == 0 {
		o.SetupVirtual = 50 * time.Millisecond
	}
	o.Retry = o.retryPolicy()
	return o
}

// maxGap is CoalesceMaxGap as stream.Config.MaxGap takes it.
func (o Options) maxGap() int {
	if o.CoalesceMaxGap == 0 {
		return 16 << 10
	}
	return max(o.CoalesceMaxGap, 0)
}

// retryPolicy resolves the Retry knob on its documented semantics — zero
// value selects retry.Default(), negative MaxAttempts disables retries —
// without defaulting the rest of the options (the history planners that
// delegate per-pair defaulting still retry each pair under it). What it
// returns resolves to itself, so normalizing twice is normalizing once.
func (o Options) retryPolicy() retry.Policy {
	switch {
	case o.Retry.MaxAttempts == 0:
		return retry.Default()
	case o.Retry.MaxAttempts < 0:
		return retry.Policy{MaxAttempts: 1}
	}
	return o.Retry
}

// validate checks the required fields after defaulting.
func (o Options) validate() error {
	if !(o.Epsilon > 0) || math.IsInf(o.Epsilon, 0) {
		return fmt.Errorf("compare: epsilon %v must be positive and finite", o.Epsilon)
	}
	if err := o.Device.Validate(); err != nil {
		return err
	}
	return nil
}

// hasherFor builds the error-bounded hasher for a field dtype.
func (o Options) hasherFor(dtype errbound.DType) (*errbound.Hasher, error) {
	return errbound.NewHasher(dtype, o.Epsilon)
}

// Normalize validates the options and returns a copy with unset fields
// defaulted — the same normalization every compare entry point applies.
// Exported for planners outside this package (internal/shard) that must
// agree bit-for-bit with the single-node paths on chunking, ε, and field
// selection.
func (o Options) Normalize() (Options, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Options{}, err
	}
	return o, nil
}
