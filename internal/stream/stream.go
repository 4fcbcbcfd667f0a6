// Package stream implements the multi-level overlapping I/O pipeline of
// the comparator's verification stage (paper §2.1, Fig. 3): an I/O
// producer reads slices of scattered chunk pairs from the PFS into host
// buffers through an aio backend while the consumer transfers the previous
// slice to the device and runs the comparison kernel. Buffering is
// configurable depth-N (Config.Depth, default 2 — classic double
// buffering), so steady-state cost is bounded by the slower of the I/O and
// compute rates rather than their sum.
//
// Slice buffer sets (host buffers for both runs plus the request batches)
// are checked out of the backend's stage-2 arena — Depth of them per Run,
// returned on every exit path — so neither a slice nor a whole comparison
// allocates buffers once the arena is warm. When the backend implements
// aio.PairReader, both runs' requests for a slice are submitted as one
// overlapped batch; otherwise the two reads serialize.
//
// The consumer is data-parallel: each slice's pairs are split into
// byte-balanced contiguous ranges dispatched over Config.Exec, joined
// before the next slice. A slice's virtual compute is a sum of Durations
// (launch + transfer + Σ per-pair terms), which no evaluation order can
// change, so the virtual clock is the same at any worker count.
//
// The pipeline runs with real goroutine overlap (wall time) and accounts
// virtual time with the depth-N recurrence (VirtualPipeline):
//
//	ioStart_i   = max(ioEnd_{i-1}, compEnd_{i-depth})
//	compStart_i = max(compEnd_{i-1}, ioEnd_i)
//
// which at depth 2 reduces to the classic double-buffer closed form
//
//	total = io_0 + Σ_{i≥1} max(io_i, comp_{i-1}) + comp_last
//
// and at depth 1 to the fully serial sum Σ (io_i + comp_i).
package stream

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/retry"
)

// ChunkPair is one unit of verification work: the same logical chunk in
// the two runs' checkpoint files.
type ChunkPair struct {
	// Index is the caller-defined chunk identifier.
	Index int
	// OffA and OffB are absolute file offsets in run A's and run B's files.
	OffA, OffB int64
	// Len is the chunk length in bytes.
	Len int
}

// Config parameterizes the pipeline.
type Config struct {
	// Backend performs the scattered reads. The compare layer always
	// injects one (the service plane's ring, or compare's own fallback);
	// direct calls that leave it nil get a package-private persistent
	// ring of the same shape. Slice buffer sets come from the backend's
	// stage-2 arena (aio.ArenaOf), or from the package-private ring's when
	// the backend carries none.
	Backend aio.Backend
	// Exec runs the consumer's verification kernel, one work item per
	// range of a slice (nil verifies every slice on the consumer
	// goroutine). An executor that skips items on cancellation
	// (device.Cancelable) must be tied to Run's context.
	Exec device.Executor
	// Device prices host-to-device transfers.
	Device device.Model
	// SliceBytes is the target bytes per pipeline slice per run
	// (default 8 MiB).
	SliceBytes int
	// Depth is the pipeline depth: how many slice buffer sets may be in
	// flight at once (default 2, classic double buffering; 1 serializes
	// I/O against compute). The producer blocks acquiring a buffer set
	// from the free list, so the wall-clock pipeline and the virtual-time
	// recurrence share the same bound.
	Depth int
	// Retry governs re-issue of a slice's batch reads on Transient
	// errors. Backoff is charged to the slice's I/O virtual time; an
	// exhausted budget surfaces the error wrapped Permanent. The zero
	// policy disables retries.
	Retry retry.Policy
}

// Stats reports the pipeline's resource consumption. On error the
// cumulative fields (Slices, BytesRead, ReadCost, IOVirtual,
// ComputeVirtual, PipelineVirtual) cover only the slices consumed before
// the failure — partial but truthful; Wall always covers the whole call.
type Stats struct {
	// Slices is the number of pipeline slices consumed.
	Slices int
	// BytesRead counts bytes read from both files.
	BytesRead int64
	// ReadCost aggregates the storage cost of all reads.
	ReadCost pfs.Cost
	// IOVirtual is the summed un-overlapped I/O virtual time.
	IOVirtual time.Duration
	// ComputeVirtual is the summed transfer + kernel virtual time.
	ComputeVirtual time.Duration
	// PipelineVirtual is the overlapped end-to-end virtual time.
	PipelineVirtual time.Duration
	// Wall is the measured wall-clock time of the pipeline, set on both
	// success and error returns.
	Wall time.Duration
	// ReadRetries counts batch reads re-issued under Config.Retry.
	ReadRetries int
	// RingFallbacks counts slices that fell back to a fresh-ring
	// aio.Legacy read after the shared ring reported ErrRingClosed.
	RingFallbacks int
}

// Compute is the consumer callback: it receives one chunk pair with both
// buffers filled and returns the virtual duration of its kernel work.
//
// Compute may run concurrently for distinct pairs of one slice. r names
// the range the pair belongs to, 0 <= r < MaxRanges(Config.Exec): calls
// with the same r are sequential and in pair order, calls with different
// r may overlap, so state indexed by r (an index scratch, a reread tally)
// needs no lock. All calls for a slice return before the next slice's
// first. When several pairs of a slice fail, Run reports the error of the
// lowest pair; later ranges may still have run.
type Compute func(r int, p ChunkPair, a, b []byte) (time.Duration, error)

// slice is one pipeline stage in flight: a window of the pair list, the
// buffer set its bytes land in, and the outcome of its read.
type slice struct {
	set      *aio.BufSet
	lo, hi   int // pairs[lo:hi]
	byteSize int64
	io       time.Duration
	cost     pfs.Cost
	err      error
	retries  int  // batch reads re-issued under the retry policy
	fellBack bool // slice was read via the Legacy fallback
}

// rangeResult is one range's outcome, written by the range's worker and
// read by the consumer after the join.
type rangeResult struct {
	comp time.Duration
	err  error
	ran  bool
}

// Run streams all chunk pairs through the pipeline. Cancellation is
// observed at three points: the producer aborts between slices (and its
// backend reads observe the context themselves), the consumer aborts
// between slices, and a canceled run drains the producer before
// returning, so no goroutine leaks and every buffer set is back in the
// arena.
func Run(ctx context.Context, fA, fB *pfs.File, pairs []ChunkPair, cfg Config, compute Compute) (stats Stats, err error) {
	if len(pairs) == 0 {
		return stats, nil
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	if cfg.Backend == nil {
		cfg.Backend = fallbackBackend()
	}
	if cfg.SliceBytes <= 0 {
		cfg.SliceBytes = 8 << 20
	}
	if cfg.Depth < 1 {
		cfg.Depth = 2
	}
	var total int64
	maxLen := 0
	for _, p := range pairs {
		if p.Len <= 0 {
			return stats, fmt.Errorf("stream: chunk %d has non-positive length", p.Index)
		}
		total += int64(p.Len)
		maxLen = max(maxLen, p.Len)
	}
	sw := metrics.NewStopwatch()
	defer func() { stats.Wall = sw.Lap() }()

	// A slice closes on the first pair that takes it to SliceBytes, so no
	// slice outgrows this: every set is checked out at its final size.
	setBytes := int(min(total, int64(cfg.SliceBytes)+int64(maxLen)))
	arena := aio.ArenaOf(cfg.Backend)
	if arena == nil {
		arena = fallbackBackend().Arena()
	}

	// Free list of slices, sized to the pipeline depth: the producer
	// cannot run more than Depth slices ahead of the consumer.
	slices := make([]slice, cfg.Depth)
	pool := make(chan *slice, cfg.Depth)
	for i := range slices {
		pool <- &slices[i]
	}

	// Producer: partitions pairs into ~SliceBytes slices lazily, filling
	// each into a pooled buffer set.
	filled := make(chan *slice, cfg.Depth)
	done := make(chan struct{})
	go func() {
		defer close(filled)
		next := 0
		for next < len(pairs) {
			var s *slice
			select {
			case s = <-pool:
			case <-done:
				return
			case <-ctx.Done():
				return
			}
			set := s.set
			if set == nil {
				set = arena.Get(setBytes, setBytes)
			}
			*s = slice{set: set, lo: next}
			for next < len(pairs) {
				s.byteSize += int64(pairs[next].Len)
				next++
				if s.byteSize >= int64(cfg.SliceBytes) {
					break
				}
			}
			s.hi = next
			s.fill(ctx, fA, fB, pairs[s.lo:s.hi], cfg)
			select {
			case filled <- s:
			case <-done:
				return
			}
		}
	}()
	defer func() {
		close(done)
		for range filled { // drain so the producer can exit
		}
		for i := range slices {
			arena.Put(slices[i].set)
		}
	}()

	// Consumer: verifies each slice range-parallel over cfg.Exec and
	// advances the virtual clock by the depth-N recurrence.
	maxRanges := MaxRanges(cfg.Exec)
	bounds := make([]int, 0, maxRanges+1)
	offs := make([]int64, maxRanges)
	results := make([]rangeResult, maxRanges)
	var cur *slice
	verifyRange := func(r int) {
		res := rangeResult{ran: true}
		pos := offs[r]
		for _, p := range pairs[cur.lo+bounds[r] : cur.lo+bounds[r+1]] {
			n := int64(p.Len)
			kv, err := compute(r, p, cur.set.A[pos:pos+n], cur.set.B[pos:pos+n])
			if err != nil {
				res.err = err
				break
			}
			res.comp += kv
			pos += n
		}
		results[r] = res
	}

	vp := NewVirtualPipeline(cfg.Depth)
	for s := range filled {
		if cerr := ctx.Err(); cerr != nil {
			return stats, cerr
		}
		if s.err != nil {
			return stats, s.err
		}
		stats.Slices++
		stats.ReadCost.Add(s.cost)
		stats.BytesRead += 2 * s.byteSize
		stats.IOVirtual += s.io
		stats.ReadRetries += s.retries
		if s.fellBack {
			stats.RingFallbacks++
		}

		cur = s
		window := pairs[s.lo:s.hi]
		bounds = Ranges(bounds, len(window), func(i int) int { return window[i].Len }, maxRanges)
		nr := len(bounds) - 1
		var pos int64
		for r := 0; r < nr; r++ {
			offs[r] = pos
			for _, p := range window[bounds[r]:bounds[r+1]] {
				pos += int64(p.Len)
			}
			results[r] = rangeResult{}
		}
		device.ForCoarse(cfg.Exec, nr, verifyRange)

		// One batched kernel per slice: launch charged here, the
		// callbacks contribute only their bandwidth terms. Ranges are
		// contiguous and each stops at its first failure, so the first
		// failed range holds the error of the lowest pair.
		comp := cfg.Device.KernelLaunch + cfg.Device.TransferTime(2*s.byteSize)
		for r := 0; r < nr; r++ {
			if err := results[r].err; err != nil {
				return stats, err
			}
			if !results[r].ran {
				if cerr := ctx.Err(); cerr != nil {
					return stats, cerr
				}
				return stats, fmt.Errorf("stream: executor skipped range %d of %d", r, nr)
			}
			comp += results[r].comp
		}
		stats.ComputeVirtual += comp
		vp.Advance(s.io, comp)
		stats.PipelineVirtual = vp.Total()
		pool <- s // recycle the slice and its buffer set
	}
	return stats, ctx.Err()
}

// fill reads the slice's chunks from both files into the slice's buffer
// set, up the read ladder (aio.ReadLadder: retries under cfg.Retry with
// backoff charged to the slice's I/O time, then one fresh-ring read when
// the shared ring reports closed).
func (s *slice) fill(ctx context.Context, fA, fB *pfs.File, pairs []ChunkPair, cfg Config) {
	set := s.set
	bufA, bufB := set.A[:s.byteSize], set.B[:s.byteSize]
	reqsA, reqsB := set.ReqsA[:0], set.ReqsB[:0]
	var pos int64
	for _, p := range pairs {
		reqsA = append(reqsA, aio.ReadReq{Off: p.OffA, Len: p.Len, Buf: bufA[pos : pos+int64(p.Len)], Tag: p.Index})
		reqsB = append(reqsB, aio.ReadReq{Off: p.OffB, Len: p.Len, Buf: bufB[pos : pos+int64(p.Len)], Tag: p.Index})
		pos += int64(p.Len)
	}
	set.ReqsA, set.ReqsB = reqsA, reqsB
	var rd aio.LadderRead
	if fA == fB {
		// Both sides live in the same file (differential comparisons read
		// every chunk from the shared CAS pack): merge the two batches into
		// one so a coalescing backend can bridge gaps ACROSS sides — A and
		// B representatives captured in the same iteration sit adjacent in
		// the pack — and the whole slice costs a single batched submission.
		set.ReqsAB = append(append(set.ReqsAB[:0], reqsA...), reqsB...)
		rd, s.err = aio.ReadLadder(ctx, cfg.Backend, cfg.Retry, aio.Batch{File: fA, Reqs: set.ReqsAB})
	} else {
		rd, s.err = aio.ReadLadder(ctx, cfg.Backend, cfg.Retry,
			aio.Batch{File: fA, Reqs: reqsA}, aio.Batch{File: fB, Reqs: reqsB})
	}
	s.cost, s.io, s.retries, s.fellBack = rd.Cost, rd.IO, rd.Retries, rd.FellBack
}

// VirtualPipeline accumulates the virtual-clock completion time of a
// depth-N two-stage (I/O → compute) pipeline. Slice i's read can start
// only when the previous read finished (one I/O channel) AND a buffer set
// is free, i.e. slice i-depth's compute finished; its compute starts when
// the previous compute finished (one device) and its own read is done:
//
//	ioStart_i   = max(ioEnd_{i-1}, compEnd_{i-depth})
//	compStart_i = max(compEnd_{i-1}, ioEnd_i)
//
// Exported so tests can check the recurrence against its closed forms
// (serial sum at depth 1, the double-buffer formula at depth 2).
type VirtualPipeline struct {
	ioEnd   time.Duration
	compEnd time.Duration
	ends    []time.Duration // compEnd of the last `depth` slices, ring-indexed
	n       int
}

// NewVirtualPipeline returns an accumulator for the given depth
// (values < 1 are treated as 1).
func NewVirtualPipeline(depth int) *VirtualPipeline {
	if depth < 1 {
		depth = 1
	}
	return &VirtualPipeline{ends: make([]time.Duration, depth)}
}

// Advance feeds the next slice's I/O and compute virtual durations.
func (v *VirtualPipeline) Advance(io, comp time.Duration) {
	depth := len(v.ends)
	ioStart := v.ioEnd
	if v.n >= depth {
		// The buffer set is recycled from slice n-depth; wait for its
		// compute to release it.
		if free := v.ends[v.n%depth]; free > ioStart {
			ioStart = free
		}
	}
	v.ioEnd = ioStart + io
	compStart := v.compEnd
	if v.ioEnd > compStart {
		compStart = v.ioEnd
	}
	v.compEnd = compStart + comp
	v.ends[v.n%depth] = v.compEnd
	v.n++
}

// Total returns the pipeline completion time of the slices fed so far.
func (v *VirtualPipeline) Total() time.Duration { return v.compEnd }
