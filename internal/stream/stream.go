// Package stream implements the verification stage of the comparator
// (paper §2.1, Fig. 3), once, for every planner: a Plan names N sources — a
// file and the extents needed from it — and an ordered list of jobs, each
// comparing one extent of one source with one extent of another. A pair
// comparison is the plan of two sources, a group of N runs is N sources
// whose shared extents are listed once, and a differential (CAS) comparison
// is the single pack every member views.
//
// The job list is cut into windows: a window closes at the first job that
// takes any source's bytes in it to Config.SliceBytes — twice that for a
// source holding both sides of a job, so SliceBytes bounds one side whether
// a pair sits in two files or one pack — and the jobs right behind it that
// share an extent with it and still fit. One window asks at most SliceBytes
// plus one job's bytes of each source and side; its requests sit in one
// batch per source, reused by every window of the run and recycled across
// runs through a bounded free list. Its bytes land as views, copied only
// where Land cannot view.
//
// Run takes the windows one at a time on the calling goroutine. It prices a
// window — every source's extents once, merged into runs of nearby extents
// (Config.MaxGap), consecutive sources two at a time up the read ladder
// (aio.ReadLadder), so a PairPricer backend overlaps them — lands its
// extents once each (pfs.File.Land: a view of the file's
// mapping, so the kernels read the page cache where it lies) and verifies
// it in one dispatch over Config.Exec: the window's jobs split into
// byte-balanced contiguous ranges, which read their views under pfs's
// fault contract (pfs.Guard, then pfs.File.Holds). A window's virtual
// compute is a sum of Durations (launch + transfer + Σ per-job terms),
// which no evaluation order can change, so the virtual clock is the same
// at any worker count.
//
// Virtual time is a depth-N two-stage pipeline's (Config.Depth, default 2 —
// classic double buffering), accounted with the recurrence
// (VirtualPipeline):
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
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/aio"
	"repro/internal/device"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/retry"
)

// Extent is one contiguous byte range of a source.
type Extent struct {
	Off int64
	Len int
}

// Source is one file of a plan and the extents needed from it. Once the
// plan is sealed they ascend by offset without duplicates, so an extent two
// jobs share is read once per window and adjacent extents coalesce.
type Source struct {
	File    *pfs.File
	Extents []Extent
}

// Ref names one extent of one source of a plan.
type Ref struct {
	Src, Ext int
}

// Job is one unit of verification work: Len bytes at extent A against Len
// bytes at extent B.
type Job struct {
	// Index is the caller-defined job identifier.
	Index int
	A, B  Ref
	Len   int
}

// Plan is a stage-2 read plan: N sources and the jobs over them, verified
// in job order. Build one with NewPlan and Add.
type Plan struct {
	Sources []Source
	Jobs    []Job
	// Degrade runs the plan down the degradation ladder instead of failing
	// it: a source no read rung can serve is dropped for the rest of the
	// run, and the jobs naming it are never delivered — the caller falls
	// back to what it knew without the bytes.
	Degrade bool
	// Check, when set, is the ladder's integrity rung: it is called once
	// per source extent of every window, after the extent lands (data: a
	// read-only view, or a copy) and before any job sees it, and returns
	// what the jobs see: data, a repair in a buffer of the rung's own, or
	// nil, a rejection delivered as a nil side. r is the range the call
	// runs in, as for Compute.
	Check func(ctx context.Context, r, src, ext int, data []byte) []byte
}

// NewPlan returns an empty plan over the given files, one source each.
func NewPlan(files ...*pfs.File) *Plan {
	p := &Plan{Sources: make([]Source, len(files))}
	for i, f := range files {
		p.Sources[i].File = f
	}
	return p
}

// Add appends a job comparing n bytes at offA of source a with n bytes at
// offB of source b. Extents may repeat and arrive in any order; Seal sorts
// them out.
func (p *Plan) Add(index, a int, offA int64, b int, offB int64, n int) {
	ref := func(src int, off int64) Ref {
		s := &p.Sources[src]
		s.Extents = append(s.Extents, Extent{Off: off, Len: n})
		return Ref{Src: src, Ext: len(s.Extents) - 1}
	}
	p.Jobs = append(p.Jobs, Job{Index: index, A: ref(a, offA), B: ref(b, offB), Len: n})
}

func cmpExtent(a, b Extent) int {
	if c := cmp.Compare(a.Off, b.Off); c != 0 {
		return c
	}
	return cmp.Compare(a.Len, b.Len)
}

// Seal puts every source's extents in ascending order without duplicates
// and re-points the jobs at them. Run seals the plan it is given; a caller
// that keeps state per extent seals first and indexes by the final
// numbering. Sealing a sealed plan changes nothing.
func (p *Plan) Seal() {
	// unsealed[s] holds source s's extents as the jobs still number them,
	// for the sources that needed sorting.
	unsealed := make([][]Extent, len(p.Sources))
	dirty := false
	for s := range p.Sources {
		old := p.Sources[s].Extents
		sealed := true
		for i := 1; i < len(old) && sealed; i++ {
			sealed = cmpExtent(old[i-1], old[i]) < 0
		}
		if sealed {
			continue
		}
		sorted := slices.Clone(old)
		slices.SortFunc(sorted, cmpExtent)
		p.Sources[s].Extents, unsealed[s], dirty = slices.Compact(sorted), old, true
	}
	if !dirty {
		return
	}
	at := func(r *Ref) {
		if old := unsealed[r.Src]; old != nil {
			r.Ext, _ = slices.BinarySearchFunc(p.Sources[r.Src].Extents, old[r.Ext], cmpExtent)
		}
	}
	for i := range p.Jobs {
		at(&p.Jobs[i].A)
		at(&p.Jobs[i].B)
	}
}

// Config parameterizes the pipeline.
type Config struct {
	// Backend prices the scattered reads. Required.
	Backend aio.Backend
	// Exec runs each window's ranges — landing their extents, verifying
	// their jobs — one work item per range (nil runs them on the caller).
	// An executor that skips items on cancellation (device.Cancelable) must
	// be tied to Run's context.
	Exec device.Executor
	// Device prices host-to-device transfers.
	Device device.Model
	// SliceBytes is the target bytes per window per source, and per side
	// of a source that holds both sides of a job (default 8 MiB).
	SliceBytes int
	// MaxGap, when positive, is the largest hole in bytes bridged between
	// two of a source's extents in one window: a run of extents each
	// starting within MaxGap of the run's end prices as one read over the
	// whole run, gap bytes included (a flip decided in a gap never lands).
	// 0 or negative prices every extent alone.
	MaxGap int
	// Depth is the depth of the pipeline virtual time is accounted for:
	// how many windows may be in flight at once (default 2, classic double
	// buffering; 1 serializes I/O against compute). Windows run one at a
	// time; Depth shapes the virtual clock alone (VirtualPipeline).
	Depth int
	// Retry governs re-issue of a window's pricing on Transient errors.
	// Backoff is charged to the window's I/O virtual time; an exhausted
	// budget surfaces the error wrapped Permanent. The zero policy disables
	// retries.
	Retry retry.Policy
}

// Stats reports the pipeline's resource consumption. On error the
// cumulative fields (Slices, BytesRead, ReadCost, IOVirtual,
// ComputeVirtual, PipelineVirtual) cover only the windows priced before
// the failure — partial but truthful; Wall always covers the whole call.
type Stats struct {
	// Slices is the number of windows priced.
	Slices int
	// BytesRead counts the bytes read from every source.
	BytesRead int64
	// PeakWindowBytes is the most bytes one window asked of its sources,
	// all of them summed, as cut — whether or not every read then succeeded.
	PeakWindowBytes int64
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
	// ReadRetries counts window pricings re-issued under Config.Retry.
	ReadRetries int
}

// Compute is the consumer callback: it receives one job with both extents'
// bytes (a nil side is one Plan.Check rejected) and returns the virtual
// duration of its kernel work.
//
// Compute may run concurrently for distinct jobs of one window. r names
// the range the job belongs to, 0 <= r < MaxRanges(Config.Exec): calls
// with the same r are sequential and in job order, calls with different
// r may overlap, so state indexed by r (an index scratch, a reread tally)
// needs no lock. All calls for a window return before the next window's
// first. When several jobs of a window fail, Run reports the error of the
// lowest job; later ranges may still have run. Under Plan.Degrade a range
// whose file shrank under its views after the check pass delivers each of
// its jobs again with both sides nil, withdrawing what it reported.
type Compute func(r int, j Job, a, b []byte) (time.Duration, error)

// window is the stretch of the job list being priced and verified: its
// jobs, the request batch of each source's extents, and what pricing them
// cost.
type window struct {
	lo, hi  int      // plan.Jobs[lo:hi]
	batches []*batch // by source
	// at[i] is where job lo+i's sides land: the index of each side's
	// request in its source's batch, or -1 for a job whose source is dead.
	at      [][2]int32
	loaded  []int // the live sources priced this window, ascending
	held    int64 // bytes asked of the sources, priced or not
	bytes   int64 // bytes priced
	skipped int
	io      time.Duration
	cost    pfs.Cost
	retries int // pricings re-issued under the retry policy
}

// batch is one source's requests in a window: its extents in extent
// order, each pointed at its landed bytes, and the runs they price as.
type batch struct {
	reqs, runs []aio.ReadReq
}

// reqBytes is the in-memory size of one aio.ReadReq, for the free list's
// byte bound: the offset, and the length, the buffer's slice header and
// the tag a word each.
const reqBytes = 8 + 5*bits.UintSize/8

// The batch free list keeps at most freeBatches batches, none larger than
// batchMax bytes (a window of more than some 20 000 extents of one source;
// a larger batch is dropped for the collector and regrown by the next run
// that needs it): at most 64 MiB for the process, in practice a few tens of
// KiB for each source of the comparisons in flight at once.
const (
	freeBatches = 64
	batchMax    = 1 << 20
)

// batchFree recycles request batches across runs, so a steady stream of
// comparisons cuts its windows into batches it does not allocate. It lives
// for the process and takes back only what its bound allows.
var batchFree struct {
	sync.Mutex
	batches []*batch
}

// getBatch checks a batch out of the free list (a new one when it is
// empty).
func getBatch() *batch {
	batchFree.Lock()
	defer batchFree.Unlock()
	if last := len(batchFree.batches) - 1; last >= 0 {
		b := batchFree.batches[last]
		batchFree.batches[last] = nil
		batchFree.batches = batchFree.batches[:last]
		return b
	}
	return &batch{}
}

// putBatch returns a batch to the free list, or drops it when the list is
// full or the batch is over the size the list keeps. Its requests drop
// their bytes first: a copy Land made is garbage once the run returns.
func putBatch(b *batch) {
	clear(b.reqs[:cap(b.reqs)])
	b.reqs, b.runs = b.reqs[:0], b.runs[:0]
	batchFree.Lock()
	if reqBytes*(cap(b.reqs)+cap(b.runs)) <= batchMax && len(batchFree.batches) < freeBatches {
		batchFree.batches = append(batchFree.batches, b)
	}
	batchFree.Unlock()
}

// reader cuts the job list into windows and prices them.
type reader struct {
	plan  *Plan
	cfg   Config
	caps  []int     // by source: the most bytes one window can ask
	limit []int64   // by source: the bytes that close a window
	mark  [][]int32 // by source and extent: 1 + its request index in the window being cut
	used  []int64   // by source: bytes in the window being cut
	dead  []bool    // by source: no read rung could serve it
	next  int       // the first job not yet in a window
}

// newReader validates the plan and sizes the per-source windows.
// SliceBytes bounds one side of a window: a source closes the window at
// SliceBytes, and a source that holds both sides of a job (the CAS pack) at
// twice that, so the one-source pair cuts where the two-source pair does.
// No source outgrows its limit plus the most one job can add to it.
func newReader(plan *Plan, cfg Config) (*reader, error) {
	n := len(plan.Sources)
	r := &reader{plan: plan, cfg: cfg, caps: make([]int, n), limit: make([]int64, n),
		mark: make([][]int32, n), used: make([]int64, n), dead: make([]bool, n)}
	for s := range r.limit {
		r.limit[s] = int64(cfg.SliceBytes)
	}
	for _, j := range plan.Jobs {
		if j.Len <= 0 {
			return nil, fmt.Errorf("stream: chunk %d has non-positive length", j.Index)
		}
		if j.A.Src == j.B.Src {
			r.caps[j.A.Src] = max(r.caps[j.A.Src], 2*j.Len)
			r.limit[j.A.Src] = 2 * int64(cfg.SliceBytes)
		} else {
			r.caps[j.A.Src] = max(r.caps[j.A.Src], j.Len)
			r.caps[j.B.Src] = max(r.caps[j.B.Src], j.Len)
		}
	}
	for s, src := range plan.Sources {
		var total int64
		for _, e := range src.Extents {
			total += int64(e.Len)
		}
		r.caps[s] = int(min(total, r.limit[s]+int64(r.caps[s])))
		r.mark[s] = make([]int32, len(src.Extents))
	}
	return r, nil
}

// fill cuts the next window off the job list and prices it: the one place
// stage 2 decides what is read together and climbs the read ladder. Each
// source's extents are laid out in extent order — by offset, since the plan
// is sealed — and merged, as they are laid out, into the source's runs
// (Config.MaxGap), which are what is priced; the extents land one by one.
// Consecutive sources are priced two at a time (aio.ReadLadder:
// retries under the policy with backoff charged to the window's I/O time; a
// PairPricer overlaps the two). Under Plan.Degrade a failed duo climbs again
// one source at a time — one bad source must not take down both — and a
// source that still cannot be read is dead: its jobs, here and in every
// later window, are skipped.
func (r *reader) fill(ctx context.Context, w *window) error {
	jobs := r.plan.Jobs
	*w = window{batches: w.batches, at: w.at[:0], loaded: w.loaded[:0], lo: r.next}
	clear(r.used)
	for _, b := range w.batches {
		b.reqs, b.runs = b.reqs[:0], b.runs[:0]
	}
	for full := false; r.next < len(jobs); r.next++ {
		j := &jobs[r.next]
		if r.dead[j.A.Src] || r.dead[j.B.Src] {
			continue
		}
		if full && !r.rides(j) {
			break
		}
		for _, ref := range [2]Ref{j.A, j.B} {
			if r.mark[ref.Src][ref.Ext] != 0 {
				continue
			}
			r.mark[ref.Src][ref.Ext] = 1
			b := w.batches[ref.Src]
			e := r.plan.Sources[ref.Src].Extents[ref.Ext]
			b.reqs = append(b.reqs, aio.ReadReq{Off: e.Off, Len: e.Len, Tag: ref.Ext})
			r.used[ref.Src] += int64(e.Len)
			full = full || r.used[ref.Src] >= r.limit[ref.Src]
		}
	}
	w.hi = r.next

	byExtent := func(a, b aio.ReadReq) int { return cmp.Compare(a.Tag, b.Tag) }
	gap := int64(r.cfg.MaxGap)
	for s, b := range w.batches {
		if len(b.reqs) == 0 {
			continue
		}
		if !slices.IsSortedFunc(b.reqs, byExtent) {
			slices.SortFunc(b.reqs, byExtent)
		}
		for k := range b.reqs {
			q := &b.reqs[k]
			r.mark[s][q.Tag] = int32(k + 1)
			if n := len(b.runs) - 1; gap > 0 && n >= 0 && q.Off <= b.runs[n].Off+int64(b.runs[n].Len)+gap {
				run := &b.runs[n]
				run.Len = int(max(run.Off+int64(run.Len), q.Off+int64(q.Len)) - run.Off)
			} else {
				b.runs = append(b.runs, aio.ReadReq{Off: q.Off, Len: q.Len, Tag: q.Tag})
			}
		}
		w.loaded = append(w.loaded, s)
		w.held += r.used[s]
	}
	for i := 0; i < len(w.loaded); i += 2 {
		if err := r.price(ctx, w, w.loaded[i:min(i+2, len(w.loaded))]); err != nil {
			return err
		}
	}
	w.loaded = slices.DeleteFunc(w.loaded, func(s int) bool { return r.dead[s] })

	for _, j := range jobs[w.lo:w.hi] {
		if r.dead[j.A.Src] || r.dead[j.B.Src] {
			w.at = append(w.at, [2]int32{-1, -1})
			w.skipped++
			continue
		}
		w.at = append(w.at, [2]int32{r.mark[j.A.Src][j.A.Ext] - 1, r.mark[j.B.Src][j.B.Ext] - 1})
	}
	for s, b := range w.batches {
		for _, q := range b.reqs {
			r.mark[s][q.Tag] = 0
		}
	}
	return nil
}

// rides reports whether a job may still join the window being cut after a
// source filled up: it must re-use an extent the window already holds — so
// an extent consecutive jobs share is not read again by the next window —
// and what it adds must keep the source within caps.
func (r *reader) rides(j *Job) bool {
	fresh := 0
	for _, ref := range [2]Ref{j.A, j.B} {
		if r.mark[ref.Src][ref.Ext] == 0 {
			fresh++
			if r.used[ref.Src]+int64(j.Len) > int64(r.caps[ref.Src]) {
				return false
			}
		}
	}
	return fresh < 2
}

// price prices one or two of the window's sources up the ladder.
func (r *reader) price(ctx context.Context, w *window, srcs []int) error {
	var batches [2]aio.Batch
	var n int64
	for i, s := range srcs {
		batches[i] = aio.Batch{File: r.plan.Sources[s].File, Reqs: w.batches[s].runs}
		n += r.used[s]
	}
	rd, err := aio.ReadLadder(ctx, r.cfg.Backend, r.cfg.Retry, batches[:len(srcs)]...)
	w.io += rd.IO
	w.retries += rd.Retries
	switch {
	case err == nil:
		w.cost.Add(rd.Cost)
		w.bytes += n
	case !r.plan.Degrade || ctx.Err() != nil:
		// Strict mode fails on any storage error; cancellation is never
		// degraded away.
		return err
	case len(srcs) == 2:
		if err := r.price(ctx, w, srcs[:1]); err != nil {
			return err
		}
		return r.price(ctx, w, srcs[1:])
	default:
		r.dead[srcs[0]] = true
	}
	return nil
}

// drop takes the sources that died since the window was priced — their
// bytes would not land — out of it: their jobs here are skipped, as in
// every later window.
func (r *reader) drop(w *window) {
	w.loaded = slices.DeleteFunc(w.loaded, func(s int) bool { return r.dead[s] })
	for i, j := range r.plan.Jobs[w.lo:w.hi] {
		if w.at[i][0] >= 0 && (r.dead[j.A.Src] || r.dead[j.B.Src]) {
			w.at[i] = [2]int32{-1, -1}
			w.skipped++
		}
	}
}

// landAt is pfs.File.Land, a variable so tests can count the landings.
var landAt = (*pfs.File).Land

// landReqs points each of a source's requests at the bytes Land returns.
func landReqs(f *pfs.File, reqs []aio.ReadReq) error {
	for k := range reqs {
		q := &reqs[k]
		b, err := landAt(f, q.Off, q.Len)
		if err != nil {
			return err
		}
		q.Buf = b
	}
	return nil
}

// rangeResult is one range's outcome, written by the range's worker and
// read after the join.
type rangeResult struct {
	comp time.Duration
	err  error
	lost bool // err is a failure to land or keep source src's bytes
	src  int
	died bool // the range withdrew its jobs under Degrade: src is dead
	ran  bool
}

// verifier verifies one window at a time, range-parallel over the
// executor.
type verifier struct {
	plan      *Plan
	cfg       Config
	compute   Compute
	maxRanges int
	w         *window
	bounds    []int         // range r is items [bounds[r], bounds[r+1])
	results   []rangeResult // by range
	src       int           // the source a land-and-check pass is on
	ends      []Extent      // [r*len(plan.Sources)+s]: what range r read of s that ends last
	files     []*pfs.File   // by source
	// verifyRange and checkRange are the two dispatches' work items.
	verifyRange, checkRange func(r int)
}

func newVerifier(ctx context.Context, plan *Plan, cfg Config, compute Compute) *verifier {
	maxRanges := MaxRanges(cfg.Exec)
	v := &verifier{plan: plan, cfg: cfg, compute: compute, maxRanges: maxRanges,
		bounds: make([]int, 0, maxRanges+1), results: make([]rangeResult, maxRanges),
		ends: make([]Extent, maxRanges*len(plan.Sources)), files: make([]*pfs.File, len(plan.Sources))}
	for s, src := range plan.Sources {
		v.files[s] = src.File
	}
	v.verifyRange = func(r int) {
		if v.verifyIn(r); plan.Degrade && v.results[r].lost {
			v.withdraw(r)
		}
	}
	v.checkRange = func(r int) { v.checkIn(ctx, r) }
	return v
}

// run lands and verifies a window and returns its virtual compute. Under
// Plan.Degrade or with Plan.Check every extent lands, a source at a time,
// and is judged before any job sees it; a source whose bytes fail to land
// is dead under Degrade and fails the run otherwise. Else every extent
// lands on the caller, once however many ranges name it. Then each range
// verifies its jobs.
func (v *verifier) run(ctx context.Context, rd *reader, w *window) (time.Duration, error) {
	v.w = w
	if v.plan.Degrade || v.plan.Check != nil {
		for _, s := range w.loaded {
			reqs := w.batches[s].reqs
			v.bounds = Ranges(v.bounds, len(reqs), func(i int) int { return reqs[i].Len }, v.maxRanges)
			v.src = s
			if _, lost, err := v.join(ctx, v.checkRange); err != nil {
				if !lost || !v.plan.Degrade {
					return 0, err
				}
				rd.dead[s] = true
			}
		}
		rd.drop(w)
	} else {
		for _, s := range w.loaded {
			if err := landReqs(v.plan.Sources[s].File, w.batches[s].reqs); err != nil {
				return 0, err
			}
		}
	}
	// One batched kernel per window: launch and transfer charged here, the
	// callbacks contribute only their bandwidth terms. A window with
	// nothing left to verify launches nothing.
	jobs := v.plan.Jobs[w.lo:w.hi]
	if w.skipped == len(jobs) {
		return 0, nil
	}
	v.bounds = Ranges(v.bounds, len(jobs), func(i int) int { return jobs[i].Len }, v.maxRanges)
	kernel, _, err := v.join(ctx, v.verifyRange)
	if err != nil {
		return 0, err
	}
	for _, res := range v.results[:len(v.bounds)-1] {
		if res.died {
			rd.dead[res.src] = true
		}
	}
	return v.cfg.Device.KernelLaunch + v.cfg.Device.TransferTime(w.bytes) + kernel, nil
}

// lose files range r's failure to land or keep source src's bytes.
func (v *verifier) lose(r, src int, err error) {
	v.results[r] = rangeResult{err: err, lost: true, src: src, ran: true}
}

// verifyIn is range r of the verify dispatch: its jobs in order, under
// pfs.Guard, then the size check (holds).
func (v *verifier) verifyIn(r int) {
	res, w, ends := rangeResult{ran: true}, v.w, v.rangeEnds(r)
	faulted := pfs.Guard(func() {
		for i := v.bounds[r]; i < v.bounds[r+1]; i++ {
			at := w.at[i]
			if at[0] < 0 {
				continue
			}
			j := v.plan.Jobs[w.lo+i]
			v.read(ends, j.A)
			v.read(ends, j.B)
			kv, err := v.compute(r, j, w.batches[j.A.Src].reqs[at[0]].Buf, w.batches[j.B.Src].reqs[at[1]].Buf)
			if err != nil {
				res.err = err
				return
			}
			res.comp += kv
		}
	}, v.files...)
	if v.results[r] = res; res.err == nil {
		v.holds(r, ends, faulted)
	}
}

// withdraw is a lost verify range under Plan.Degrade: each of its jobs is
// delivered again with both sides nil, and its source dies when the window
// ends.
func (v *verifier) withdraw(r int) {
	w, res := v.w, &v.results[r]
	*res = rangeResult{src: res.src, died: true, ran: true}
	for i := v.bounds[r]; i < v.bounds[r+1] && res.err == nil; i++ {
		if w.at[i][0] >= 0 {
			kv, err := v.compute(r, v.plan.Jobs[w.lo+i], nil, nil)
			res.comp, res.err = res.comp+kv, err
		}
	}
}

// checkIn is range r of a source's land-and-check pass: each extent lands
// and Plan.Check judges it, under pfs.Guard, then the size check (holds).
func (v *verifier) checkIn(ctx context.Context, r int) {
	f, check := v.plan.Sources[v.src].File, v.plan.Check
	reqs, ends := v.w.batches[v.src].reqs[v.bounds[r]:v.bounds[r+1]], v.rangeEnds(r)
	var err error
	faulted := pfs.Guard(func() {
		for k := range reqs {
			q := &reqs[k]
			var b []byte
			if b, err = landAt(f, q.Off, q.Len); err != nil {
				return
			}
			v.read(ends, Ref{Src: v.src, Ext: q.Tag})
			if q.Buf = b; check != nil {
				q.Buf = check(ctx, r, v.src, q.Tag, b)
			}
		}
	}, v.files...)
	if err != nil {
		v.lose(r, v.src, err)
		return
	}
	v.results[r] = rangeResult{ran: true}
	v.holds(r, ends, faulted)
}

// rangeEnds returns range r's size-check marks, cleared.
func (v *verifier) rangeEnds(r int) []Extent {
	ends := v.ends[r*len(v.plan.Sources) : (r+1)*len(v.plan.Sources)]
	clear(ends)
	return ends
}

// read marks extent ref read.
func (v *verifier) read(ends []Extent, ref Ref) {
	if e := v.plan.Sources[ref.Src].Extents[ref.Ext]; e.Off+int64(e.Len) > ends[ref.Src].Off+int64(ends[ref.Src].Len) {
		ends[ref.Src] = e
	}
}

// holds is range r's size check, one pfs.File.Holds per source it read:
// a file cut within a page of where the range read it leaves zeros in its
// views, not a fault. A range a fault in source faulted's view ended fails
// even where the file has grown back since.
func (v *verifier) holds(r int, ends []Extent, faulted int) {
	for s, e := range ends {
		if e.Len > 0 {
			if err := v.files[s].Holds(e.Off, e.Len); err != nil {
				v.lose(r, s, err)
				return
			}
		}
	}
	if faulted >= 0 {
		v.lose(r, faulted, fmt.Errorf("stream: %s: a view faulted: %w", v.files[faulted].Name(), io.ErrUnexpectedEOF))
	}
}

// join runs the ranges cut in bounds over the executor and sums their
// compute. Ranges are contiguous and each stops at its first failure, so
// the first failed range holds the error of the lowest item; lost reports
// that the error is a failure to land its bytes.
func (v *verifier) join(ctx context.Context, run func(r int)) (comp time.Duration, lost bool, err error) {
	nr := len(v.bounds) - 1
	clear(v.results[:nr])
	device.ForCoarse(v.cfg.Exec, nr, run)
	for r := 0; r < nr; r++ {
		res := &v.results[r]
		if res.err != nil {
			return 0, res.lost, res.err
		}
		if !res.ran {
			if cerr := ctx.Err(); cerr != nil {
				return 0, false, cerr
			}
			return 0, false, fmt.Errorf("stream: executor skipped range %d of %d", r, nr)
		}
		comp += res.comp
	}
	return comp, false, nil
}

// Run streams the plan through the pipeline, a window at a time on the
// calling goroutine. Cancellation is observed between windows, by the
// backend's pricing, and by an executor tied to ctx; every request batch is
// back on the free list when Run returns.
func Run(ctx context.Context, plan *Plan, cfg Config, compute Compute) (stats Stats, err error) {
	if len(plan.Jobs) == 0 {
		return stats, nil
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	if cfg.Backend == nil {
		return stats, errors.New("stream: no backend")
	}
	if cfg.SliceBytes <= 0 {
		cfg.SliceBytes = 8 << 20
	}
	if cfg.Depth < 1 {
		cfg.Depth = 2
	}
	plan.Seal()
	rd, err := newReader(plan, cfg)
	if err != nil {
		return stats, err
	}
	sw := metrics.NewStopwatch()
	defer func() { stats.Wall = sw.Lap() }()

	w := &window{batches: make([]*batch, len(plan.Sources))}
	for s := range w.batches {
		w.batches[s] = getBatch()
	}
	defer func() {
		for _, b := range w.batches {
			putBatch(b)
		}
	}()
	v := newVerifier(ctx, plan, cfg, compute)
	vp := NewVirtualPipeline(cfg.Depth)
	for rd.next < len(plan.Jobs) {
		if err := ctx.Err(); err != nil {
			return stats, err
		}
		if err := rd.fill(ctx, w); err != nil {
			return stats, err
		}
		stats.Slices++
		stats.ReadCost.Add(w.cost)
		stats.BytesRead += w.bytes
		stats.PeakWindowBytes = max(stats.PeakWindowBytes, w.held)
		stats.IOVirtual += w.io
		stats.ReadRetries += w.retries

		comp, err := v.run(ctx, rd, w)
		if err != nil {
			return stats, err
		}
		stats.ComputeVirtual += comp
		vp.Advance(w.io, comp)
		stats.PipelineVirtual = vp.Total()
	}
	return stats, ctx.Err()
}

// VirtualPipeline accumulates the virtual-clock completion time of a
// depth-N two-stage (I/O → compute) pipeline. Window i's read can start
// only when the previous read finished (one I/O channel) AND a window is
// free, i.e. window i-depth's compute finished; its compute starts when
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
	ends    []time.Duration // compEnd of the last `depth` windows, ring-indexed
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

// Advance feeds the next window's I/O and compute virtual durations.
func (v *VirtualPipeline) Advance(io, comp time.Duration) {
	depth := len(v.ends)
	ioStart := v.ioEnd
	if v.n >= depth {
		// The window is recycled from window n-depth; wait for its
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

// Total returns the pipeline completion time of the windows fed so far.
func (v *VirtualPipeline) Total() time.Duration { return v.compEnd }
