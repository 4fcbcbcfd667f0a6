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
// share an extent with it and still fit. One window pins at most SliceBytes
// plus one job's bytes per source and side, in one buffer set per source
// from the stage-2 arena, held from the first window to Run's return.
//
// Run takes the windows one at a time on the calling goroutine. It prices a
// window — every source's extents once, consecutive sources two at a time
// up the read ladder (aio.ReadLadder), so a PairPricer backend overlaps
// them — and verifies it in one dispatch over Config.Exec: the window's jobs
// split into byte-balanced contiguous ranges, each of which lands the
// extents its jobs name (pfs.File.Copy, one per run of them adjacent in the
// file) and verifies them while they are in cache, so the reads overlap the
// comparison kernel on every worker. An extent jobs of several ranges name
// lands once, before the dispatch. A window's virtual compute is a sum of
// Durations (launch + transfer + Σ per-job terms), which no evaluation order
// can change, so the virtual clock is the same at any worker count.
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
	"slices"
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
	// per source extent of every window, after the extent lands and before
	// any job sees it, and may repair data in place. An extent it rejects is delivered to
	// its jobs as a nil side. r is the range the call runs in, as for
	// Compute.
	Check func(ctx context.Context, r, src, ext int, data []byte) bool
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
	// Arena supplies the window buffers. Required.
	Arena *aio.Arena
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
	// RingFallbacks is always 0: no read falls back to a fresh ring. It
	// stays for the results and journal records that carry it.
	RingFallbacks int
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
// lowest job; later ranges may still have run.
type Compute func(r int, j Job, a, b []byte) (time.Duration, error)

// window is the stretch of the job list being priced and verified: its
// jobs, the buffer set each source's extents land in, and what pricing them
// cost.
type window struct {
	lo, hi int           // plan.Jobs[lo:hi]
	sets   []*aio.BufSet // by source; nil until the source is first needed
	// at[i] is where job lo+i's sides land: the index of each side's
	// request in its source's set, or -1 for a job whose source is dead.
	at      [][2]int32
	loaded  []int // the live sources priced this window, ascending
	held    int64 // bytes asked of the sources, priced or not
	bytes   int64 // bytes priced
	skipped int
	io      time.Duration
	cost    pfs.Cost
	retries int // pricings re-issued under the retry policy
}

// reader cuts the job list into windows and prices them.
type reader struct {
	plan  *Plan
	cfg   Config
	caps  []int     // by source: the most bytes one window can need
	limit []int64   // by source: the bytes that close a window
	mark  [][]int32 // by source and extent: 1 + its request index in the window being cut
	used  []int64   // by source: bytes in the window being cut
	dead  []bool    // by source: no read rung could serve it
	next  int       // the first job not yet in a window
}

// newReader validates the plan and sizes the per-source window buffers.
// SliceBytes bounds one side of a window: a source closes the window at
// SliceBytes, and a source that holds both sides of a job (the CAS pack) at
// twice that, so the one-source pair cuts where the two-source pair does.
// No source outgrows its limit plus the most one job can add to it, and
// every set is checked out at its final size.
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
// source's extents are laid out in extent order in adjacent buffer windows,
// so runs of adjacent extents coalesce, price as one read and land as one
// copy. Consecutive sources are priced two at a time (aio.ReadLadder:
// retries under the policy with backoff charged to the window's I/O time; a
// PairPricer overlaps the two). Under Plan.Degrade a failed duo climbs again
// one source at a time — one bad source must not take down both — and a
// source that still cannot be read is dead: its jobs, here and in every
// later window, are skipped.
func (r *reader) fill(ctx context.Context, w *window) error {
	jobs := r.plan.Jobs
	*w = window{sets: w.sets, at: w.at[:0], loaded: w.loaded[:0], lo: r.next}
	clear(r.used)
	for _, set := range w.sets {
		if set != nil {
			set.Reqs = set.Reqs[:0]
		}
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
			set := w.sets[ref.Src]
			if set == nil {
				set = r.cfg.Arena.Get(r.caps[ref.Src])
				w.sets[ref.Src] = set
			}
			e := r.plan.Sources[ref.Src].Extents[ref.Ext]
			set.Reqs = append(set.Reqs, aio.ReadReq{Off: e.Off, Len: e.Len, Tag: ref.Ext})
			r.used[ref.Src] += int64(e.Len)
			full = full || r.used[ref.Src] >= r.limit[ref.Src]
		}
	}
	w.hi = r.next

	byExtent := func(a, b aio.ReadReq) int { return cmp.Compare(a.Tag, b.Tag) }
	for s, set := range w.sets {
		if set == nil || len(set.Reqs) == 0 {
			continue
		}
		if !slices.IsSortedFunc(set.Reqs, byExtent) {
			slices.SortFunc(set.Reqs, byExtent)
		}
		pos := 0
		for k := range set.Reqs {
			q := &set.Reqs[k]
			q.Buf = set.Buf[pos : pos+q.Len]
			pos += q.Len
			r.mark[s][q.Tag] = int32(k + 1)
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
	for s, set := range w.sets {
		if set != nil {
			for _, q := range set.Reqs {
				r.mark[s][q.Tag] = 0
			}
		}
	}
	return nil
}

// rides reports whether a job may still join the window being cut after a
// source filled up: it must re-use an extent the window already holds — so
// an extent consecutive jobs share is not read again by the next window —
// and what it adds must fit the buffers.
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
		batches[i] = aio.Batch{File: r.plan.Sources[s].File, Reqs: w.sets[s].Reqs}
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

// copyAt lands one run of adjacent extents: pfs.File.Copy, a variable so
// tests can count the copies.
var copyAt = (*pfs.File).Copy

// landReqs lands a source's requests — ascending, laid back to back in its
// buffer set — with one copy per run of them adjacent in the file.
func landReqs(f *pfs.File, reqs []aio.ReadReq) error {
	for k := 0; k < len(reqs); {
		n, e := reqs[k].Len, k+1
		for ; e < len(reqs) && reqs[e-1].Off+int64(reqs[e-1].Len) == reqs[e].Off; e++ {
			n += reqs[e].Len
		}
		if err := copyAt(f, reqs[k].Buf[:n], reqs[k].Off); err != nil {
			return err
		}
		k = e
	}
	return nil
}

// landRun is requests [lo, hi) of source src's set, landed by range owner.
type landRun struct {
	src, lo, hi, owner int
}

// rangeResult is one range's outcome, written by the range's worker and
// read after the join.
type rangeResult struct {
	comp time.Duration
	err  error
	lost bool // err is a failure to land the range's bytes
	ran  bool
}

// verifier lands and verifies one window at a time, range-parallel over
// the executor.
type verifier struct {
	plan      *Plan
	cfg       Config
	compute   Compute
	maxRanges int
	w         *window
	bounds    []int         // range r is items [bounds[r], bounds[r+1])
	results   []rangeResult // by range
	// owner[s][k] is the range that lands request k of source s: -1 while
	// no job names it, nr — the prelude — once jobs of two ranges do.
	owner [][]int32
	lands []landRun // the window's runs of requests, each with its owner
	src   int       // the source the land-and-check pass is on
	// verifyRange and checkRange are the two dispatches' work items.
	verifyRange, checkRange func(r int)
}

func newVerifier(ctx context.Context, plan *Plan, cfg Config, compute Compute) *verifier {
	maxRanges := MaxRanges(cfg.Exec)
	v := &verifier{plan: plan, cfg: cfg, compute: compute, maxRanges: maxRanges,
		bounds: make([]int, 0, maxRanges+1), results: make([]rangeResult, maxRanges),
		owner: make([][]int32, len(plan.Sources))}
	v.verifyRange = v.verifyIn
	v.checkRange = func(r int) { v.checkIn(ctx, r) }
	return v
}

// run lands and verifies a window and returns its virtual compute. Under
// Plan.Degrade or with Plan.Check every extent lands, a source at a time,
// and is judged before any job sees it; a source whose bytes fail to land
// is dead under Degrade and fails the run otherwise. Then each range
// verifies its jobs — landing their extents first when nothing has yet.
func (v *verifier) run(ctx context.Context, rd *reader, w *window) (time.Duration, error) {
	v.w = w
	checked := v.plan.Degrade || v.plan.Check != nil
	if checked {
		for _, s := range w.loaded {
			reqs := w.sets[s].Reqs
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
	}
	// One batched kernel per window: launch and transfer charged here, the
	// callbacks contribute only their bandwidth terms. A window with
	// nothing left to verify launches nothing.
	jobs := v.plan.Jobs[w.lo:w.hi]
	if w.skipped == len(jobs) {
		return 0, nil
	}
	v.bounds = Ranges(v.bounds, len(jobs), func(i int) int { return jobs[i].Len }, v.maxRanges)
	v.lands = v.lands[:0]
	if !checked {
		nr := len(v.bounds) - 1
		v.planLands(jobs, nr)
		if err := v.landOwned(nr); err != nil {
			return 0, err
		}
	}
	kernel, _, err := v.join(ctx, v.verifyRange)
	if err != nil {
		return 0, err
	}
	return v.cfg.Device.KernelLaunch + v.cfg.Device.TransferTime(w.bytes) + kernel, nil
}

// planLands gives every request of the window to the range whose jobs name
// it — to the prelude when jobs of several ranges do — and lists the runs
// of consecutive requests one owner lands.
func (v *verifier) planLands(jobs []Job, nr int) {
	w := v.w
	for _, s := range w.loaded {
		own := slices.Grow(v.owner[s][:0], len(w.sets[s].Reqs))[:len(w.sets[s].Reqs)]
		for k := range own {
			own[k] = -1
		}
		v.owner[s] = own
	}
	for r := 0; r < nr; r++ {
		for i := v.bounds[r]; i < v.bounds[r+1]; i++ {
			at := w.at[i]
			if at[0] < 0 {
				continue
			}
			for side, src := range [2]int{jobs[i].A.Src, jobs[i].B.Src} {
				switch o := &v.owner[src][at[side]]; *o {
				case -1:
					*o = int32(r)
				case int32(r):
				default:
					*o = int32(nr)
				}
			}
		}
	}
	for _, s := range w.loaded {
		own := v.owner[s]
		for k := 0; k < len(own); {
			e := k + 1
			for e < len(own) && own[e] == own[k] {
				e++
			}
			if own[k] >= 0 {
				v.lands = append(v.lands, landRun{src: s, lo: k, hi: e, owner: int(own[k])})
			}
			k = e
		}
	}
}

// landOwned lands the runs owner lands, in order.
func (v *verifier) landOwned(owner int) error {
	for _, run := range v.lands {
		if run.owner != owner {
			continue
		}
		if err := landReqs(v.plan.Sources[run.src].File, v.w.sets[run.src].Reqs[run.lo:run.hi]); err != nil {
			return err
		}
	}
	return nil
}

// verifyIn is range r of the verify dispatch: it lands the range's runs,
// then runs its jobs in order.
func (v *verifier) verifyIn(r int) {
	if err := v.landOwned(r); err != nil {
		v.results[r] = rangeResult{err: err, lost: true, ran: true}
		return
	}
	res := rangeResult{ran: true}
	w := v.w
	for i := v.bounds[r]; i < v.bounds[r+1]; i++ {
		at := w.at[i]
		if at[0] < 0 {
			continue
		}
		j := v.plan.Jobs[w.lo+i]
		kv, err := v.compute(r, j, w.sets[j.A.Src].Reqs[at[0]].Buf, w.sets[j.B.Src].Reqs[at[1]].Buf)
		if err != nil {
			res.err = err
			break
		}
		res.comp += kv
	}
	v.results[r] = res
}

// checkIn is range r of a source's land-and-check pass: the range's
// extents land, then Plan.Check judges each; a rejected one is delivered
// as a nil side.
func (v *verifier) checkIn(ctx context.Context, r int) {
	reqs := v.w.sets[v.src].Reqs[v.bounds[r]:v.bounds[r+1]]
	if err := landReqs(v.plan.Sources[v.src].File, reqs); err != nil {
		v.results[r] = rangeResult{err: err, lost: true, ran: true}
		return
	}
	if check := v.plan.Check; check != nil {
		for k := range reqs {
			if q := &reqs[k]; !check(ctx, r, v.src, q.Tag, q.Buf) {
				q.Buf = nil
			}
		}
	}
	v.results[r] = rangeResult{ran: true}
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
// backend's pricing, and by an executor tied to ctx; every buffer set is
// back in the arena when Run returns.
func Run(ctx context.Context, plan *Plan, cfg Config, compute Compute) (stats Stats, err error) {
	if len(plan.Jobs) == 0 {
		return stats, nil
	}
	if err := ctx.Err(); err != nil {
		return stats, err
	}
	if cfg.Backend == nil || cfg.Arena == nil {
		return stats, errors.New("stream: no backend or no arena")
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

	w := &window{sets: make([]*aio.BufSet, len(plan.Sources))}
	defer func() {
		for _, set := range w.sets {
			cfg.Arena.Put(set)
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
