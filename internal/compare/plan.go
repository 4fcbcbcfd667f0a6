package compare

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cas"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/stream"
)

// This file holds the planners' one stage 2: the candidate chunks stage 1
// (memberset.go) left for every pair of a member set become one read plan —
// the members' files (or the shared pack) as its sources, one job per
// (field, chunk, pair) — streamed through the windowed pipeline
// (internal/stream) and verified by the kernel (verify.go). Every entry
// point (CompareMerkle, CompareDiff, GroupCompare, GroupCompareDiff,
// CompareDirect, and through them the history/evolution/compaction
// loops) is a thin planner: it lists an engine.Plan of the member set's
// steps and the steps below and hands it to engine.Execute, which
// supplies the context checkpoints, the step retries, the per-step timing
// table and the Fig. 6 breakdown its steps' charges build, and the LIFO
// cleanup chain that keeps early-return errors leak-free. What a
// planner keeps to itself is which sources it names and in what order its
// jobs run. The sharded planner (internal/shard) schedules the same stage 2
// itself, a work unit at a time, through Stage2 at the end of this file.

// jobRef maps one stage-2 job back to the pair, field and chunk it
// verifies. chunk is the Merkle chunk index for changed-chunk accounting,
// or -1 for the direct sweep (which has no chunk notion); base is the
// element index of the job's first element.
type jobRef struct {
	pair, field, chunk int
	base               int64
}

// leafRef is what the integrity rung holds a source extent against.
type leafRef struct {
	want  murmur3.Digest
	field int
}

// stage2 carries a member set's surviving candidates through the read
// plan, the pipeline and the kernel into the pairs' folds.
type stage2 struct {
	ms *MemberSet
	// wrap labels stage-2 errors ("verification", "direct").
	wrap string
	// degrade runs the plan down the degradation ladder
	// (Options.Degrade, Merkle paths only: stage 1 bounds what an unread
	// chunk can hide; the direct sweep has no such net).
	degrade bool

	plan    *stream.Plan
	refs    []jobRef           // by job
	hashers []*errbound.Hasher // by field
	leaves  [][]leafRef        // by source and extent, under degrade
	// kernel holds the per-job verdicts of one run until drain lands
	// them, in job order, in the pairs' folds: scratch, checked out of the
	// free list for the run.
	kernel *verdicts
}

// ReadTally is what stage 2 read: the bytes delivered, integrity re-reads
// included, and the window pricings retried.
type ReadTally struct {
	BytesRead   int64
	ReadRetries int
}

// pairState is a pair plan: the member set [A, B], the result it charges,
// and its stage 2.
type pairState struct {
	stage2
	res *Result
}

// newPairState validates and defaults the options and returns the state
// of a pair plan over the member set [A, B]; cs makes it differential.
func newPairState(store *pfs.Store, cs *cas.Store, nameA, nameB string, opts Options, method string) (*pairState, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	res := &Result{Method: method}
	ms := newPairSet(store, cs, nameA, nameB, opts, res)
	return &pairState{
		stage2: stage2{ms: ms, wrap: "verification", degrade: opts.Degrade},
		res:    res,
	}, nil
}

// runPlan executes the plan; on failure the result is dropped.
func (st *pairState) runPlan(ctx context.Context, p *engine.Plan) (*Result, error) {
	if err := st.ms.Execute(ctx, p); err != nil {
		return nil, err
	}
	return st.res, nil
}

// appendTo appends stage 2 — plan → stream-verify → report — after the
// steps that settle what it reads; plan is stepPlanCandidates for the
// Merkle planners, the sweep for the direct one.
func (st *stage2) appendTo(p *engine.Plan, label string, plan engine.StepFunc) {
	p.Add(engine.StepCoalesce, label, plan)
	p.Add(engine.StepStreamVerify, "stream-verify", st.stepStreamVerify)
	p.Add(engine.StepReport, "report", st.ms.Report)
}

// stepPlanCandidates is planCandidates as a plan step.
func (st *stage2) stepPlanCandidates(ctx context.Context, x *engine.Exec) error {
	return st.planCandidates()
}

// planCandidates turns the candidate chunks of every pair and field
// into one batched read plan, so scattered reads amortize the queue
// latency once instead of once per field or pair, and a chunk several
// pairs need from one member is one extent, read once (each window then
// merges nearby extents into priced runs: Options.CoalesceMaxGap).
func (st *stage2) planCandidates() error {
	var err error
	if st.plan, st.refs, err = st.ms.planCandidates(); err != nil {
		return err
	}
	if err := st.fieldHashers(); err != nil {
		return err
	}
	if !st.degrade {
		return nil
	}
	// The ladder's lower rungs: dead sources are dropped, and the integrity
	// rung checks extents, not jobs — an extent is held against the leaf
	// of any job side that names it (sides sharing a pack extent share its
	// bytes, hence its leaf), read under the metadata's fault contract.
	st.plan.Degrade, st.plan.Check = true, st.checkExtent
	st.plan.Seal()
	st.leaves = make([][]leafRef, len(st.plan.Sources))
	for s, src := range st.plan.Sources {
		st.leaves[s] = make([]leafRef, len(src.Extents))
	}
	return st.ms.mv.run(func() error {
		for i, j := range st.plan.Jobs {
			ref := st.refs[i]
			for side, at := range [2]stream.Ref{j.A, j.B} {
				m := st.ms.Pairs[ref.pair][side]
				st.leaves[at.Src][at.Ext] = leafRef{want: st.ms.Metas[m].Fields[ref.field].Tree.Leaf(ref.chunk), field: ref.field}
			}
		}
		return nil
	})
}

// fieldHashers builds the ε-hasher of every selected field, one per
// dtype, once.
func (st *stage2) fieldHashers() error {
	if st.hashers != nil {
		return nil
	}
	byType := make(map[errbound.DType]*errbound.Hasher)
	st.hashers = make([]*errbound.Hasher, len(st.ms.fields))
	for fi, f := range st.ms.fields {
		if !st.ms.selected[fi] {
			continue
		}
		if byType[f.DType] == nil {
			h, err := st.ms.opts.hasherFor(f.DType)
			if err != nil {
				return err
			}
			byType[f.DType] = h
		}
		st.hashers[fi] = byType[f.DType]
	}
	return nil
}

// checkExtent is the integrity rung (stream.Plan.Check): one source
// extent's streamed bytes against the leaf hash its metadata was built
// from, re-read on mismatch from where it streamed — the member's
// container, or its pack extent in differential mode, where the leaf-hash
// check is what turns a torn or rotted CAS chunk into Corrupt instead of a
// silent dedup hit. The pipeline calls it once per extent and window, so
// every job naming the extent sees the one verdict (and the recovered
// bytes, re-read into the rung's own buffer).
func (st *stage2) checkExtent(ctx context.Context, r, src, ext int, data []byte) []byte {
	leaf, from := &st.leaves[src][ext], &st.plan.Sources[src]
	got, cost := verifyLeaf(ctx, st.hashers[leaf.field], data, leaf.want, from.File, from.Extents[ext].Off)
	st.kernel.ranges[r].rereadCost.Add(cost)
	return got
}

// verifyJob is the stage-2 consumer callback: it hands one job's two sides
// to the kernel, which files the verdict under the job's index. It runs
// concurrently for distinct jobs of a window (stream.Compute), touching
// only slot j.Index and range r.
func (st *stage2) verifyJob(r int, j stream.Job, a, b []byte) (time.Duration, error) {
	ref := &st.refs[j.Index]
	job := chunkJob{hasher: st.hashers[ref.field], a: a, b: b, base: ref.base}
	if err := st.kernel.verify(r, j.Index, &job); err != nil {
		return 0, err
	}
	// An unverifiable chunk still costs its compare time.
	return st.ms.opts.Device.CompareRateTime(int64(j.Len)), nil
}

// stepStreamVerify runs stage 2 as a plan step: the pipeline's overlapped
// time and the integrity re-reads beside it go on the step's clock.
// Following the paper's timer structure (Fig. 6: "for small error bounds,
// we need to load more data which is why the verification time is
// dominant"), the verification phase owns its overlapped data loading:
// the whole pipeline time is charged to CompareDirect, while PhaseRead
// holds only the metadata reads and the re-reads.
func (st *stage2) stepStreamVerify(ctx context.Context, x *engine.Exec) error {
	var read ReadTally
	stats, rereads, err := st.run(ctx, &read)
	if err != nil {
		return err
	}
	st.ms.acct.BytesRead += read.BytesRead
	st.ms.acct.ReadRetries += read.ReadRetries
	if st.ms.Rep != nil {
		st.ms.Rep.PipelineVirtual = stats.PipelineVirtual
	}
	x.Charge(metrics.PhaseCompareDirect, stats.PipelineVirtual)
	x.Charge(metrics.PhaseRead, rereads)
	return nil
}

// run is stage 2: the overlapped read+compare pipeline over the plan's
// windows, the verdicts landed in the pairs' folds, what it read added to
// read. It returns the pipeline's stats and the virtual time of the
// integrity re-reads, which sit outside the pipeline's clock, for the
// caller to charge. Under degrade
// the pipeline absorbs what the ladder allows — a source no read rung can
// serve drops the jobs naming it to the metadata-only verdict, a chunk
// failing its leaf hash twice is excluded from diffing — and the result is
// marked Degraded rather than failing the plan; compute errors and
// cancellation are never degraded away, and CAS-pruned chunks keep their
// proven verdict.
func (st *stage2) run(ctx context.Context, read *ReadTally) (stream.Stats, time.Duration, error) {
	ms, opts := st.ms, st.ms.opts
	if len(st.plan.Jobs) == 0 {
		return stream.Stats{}, 0, nil
	}
	exec := device.Cancelable{Done: ctx.Done(), Inner: opts.Exec}
	st.kernel = getVerdicts(len(st.plan.Jobs), stream.MaxRanges(exec))
	defer func() {
		putVerdicts(st.kernel)
		st.kernel = nil
	}()
	stats, err := stream.Run(ctx, st.plan, stream.Config{
		Backend:    opts.Backend,
		Exec:       exec,
		Device:     opts.Device,
		SliceBytes: opts.SliceBytes,
		MaxGap:     opts.maxGap(),
		Depth:      opts.Depth,
		Retry:      opts.Retry,
	}, st.verifyJob)
	if err != nil {
		return stats, 0, fmt.Errorf("compare: %s: %w", st.wrap, err)
	}
	st.drain()
	read.BytesRead += stats.BytesRead
	read.ReadRetries += stats.ReadRetries
	return stats, st.kernel.chargeRereads(ms.store, read), nil
}

// drain lands the kernel's slots in the pairs' folds, in job order — the
// same at any worker count. Each (pair, field)'s indices are counted from
// the slots before any is copied, so the list a Result carries away is one
// allocation of exactly its size, and a copy: the slots and the ranges'
// scratch go back to the free list. A job the pipeline never delivered
// named a dead source: stage 1 proved its chunk could diverge and nothing
// verified it. Verified chunks are memoized here, once the run has
// succeeded, never from the kernel: the pipeline may withdraw a verdict
// its range reached from bytes the file lost.
func (st *stage2) drain() {
	k, folds, fields := st.kernel, st.ms.folds, len(st.ms.fields)
	memo := st.ms.opts.Memo
	if st.ms.cs == nil {
		memo = nil
	}
	need := k.counts(len(folds) * fields)
	for i, s := range k.slots {
		if s.verdict == chunkChanged {
			need[st.refs[i].pair*fields+st.refs[i].field] += s.hi - s.lo
		}
	}
	for at, n := range need {
		if n > 0 {
			folds[at/fields].grow(at%fields, n)
		}
	}
	for i := range k.slots {
		ref := &st.refs[i]
		fold := &folds[ref.pair]
		switch k.slots[i].verdict {
		case chunkPending, chunkUnverified:
			fold.Unverified++
			continue
		case chunkChanged:
			fold.idx[ref.field] = append(fold.idx[ref.field], k.indices(i)...)
			if ref.chunk >= 0 {
				fold.Changed++
			}
		}
		if memo != nil {
			// Sound only in differential mode: both byte strings are CAS
			// representatives, so one digest names exactly one stored byte
			// string and the verdict is a pure function of the digest pair.
			// The memo keeps chunk-relative indices; the fold has its copy.
			rel := k.indices(i)
			for n := range rel {
				rel[n] -= ref.base
			}
			pr := st.ms.Pairs[ref.pair]
			fA, fB := &st.ms.mans[pr[0]].Fields[ref.field], &st.ms.mans[pr[1]].Fields[ref.field]
			memo.insert(fA.Digests[ref.chunk], fB.Digests[ref.chunk], st.hashers[ref.field].DType(), rel)
		}
	}
}

// Stage2 is a member set's stage 2 run piecewise, for a planner that
// schedules it itself (internal/shard: one work unit at a time, on whichever
// worker holds it). Each Verify call plans one pair's candidate chunks in
// one field and runs them through the same pipeline, ladder and kernel as
// every other planner, in windows of the size and depth the caller fixed.
// It works on a view of the set — the same members, metadata and open
// files; its own candidates, folds and read tally — so the Stage2s of one
// set share nothing they write.
type Stage2 struct {
	stage2
	read ReadTally // every Verify call's reads
}

// Read is what the Verify calls so far read.
func (s *Stage2) Read() ReadTally { return s.read }

// NewStage2 returns a piecewise stage 2 over the set, whose stage 1 must
// have run, streaming windows of sliceBytes per source, depth in flight.
func (ms *MemberSet) NewStage2(sliceBytes, depth int) *Stage2 {
	s := &Stage2{}
	view := *ms
	view.opts.SliceBytes, view.opts.Depth = sliceBytes, depth
	view.Rep, view.acct = nil, nil // Verify runs no step that charges an account
	view.Cands = make([][][]int, len(ms.Pairs))
	for pi := range view.Cands {
		view.Cands[pi] = make([][]int, len(ms.fields))
	}
	view.folds = newFolds(len(ms.Pairs), len(ms.fields))
	s.stage2 = stage2{ms: &view, wrap: "unit verification", degrade: ms.opts.Degrade}
	return s
}

// UnitVerdict is what one Stage2.Verify call found and what it cost.
type UnitVerdict struct {
	// Diffs are the field-absolute indices of the elements beyond ε,
	// ascending (the caller's to keep); Changed and Unverified count the
	// unit's chunks as PairFold does.
	Diffs               []int64
	Changed, Unverified int
	// IOVirtual is the un-overlapped read time, the integrity rung's
	// re-reads included; ComputeVirtual the transfer and kernel time.
	IOVirtual, ComputeVirtual time.Duration
	// PeakWindowBytes is the most bytes, all sources summed, one window
	// held (stream.Stats.PeakWindowBytes).
	PeakWindowBytes int64
}

// Verify runs stage 2 over candidate chunks (ascending) of one field of
// one pair of the set.
func (s *Stage2) Verify(ctx context.Context, pair, field int, chunks []int) (UnitVerdict, error) {
	s.ms.Cands[pair][field] = chunks
	err := s.planCandidates()
	s.ms.Cands[pair][field] = nil
	if err != nil {
		return UnitVerdict{}, err
	}
	stats, rereads, err := s.run(ctx, &s.read)
	if err != nil {
		return UnitVerdict{}, err
	}
	f := &s.ms.folds[pair]
	v := UnitVerdict{
		Diffs: f.idx[field], Changed: f.Changed, Unverified: f.Unverified,
		IOVirtual: stats.IOVirtual + rereads, ComputeVirtual: stats.ComputeVirtual,
		PeakWindowBytes: stats.PeakWindowBytes,
	}
	f.idx[field], f.Changed, f.Unverified = nil, 0, 0
	return v, nil
}
