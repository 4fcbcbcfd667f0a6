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
// planners) is a thin planner: it assembles an engine.Plan from the member
// set's steps and the steps below and hands it to engine.Execute, which
// supplies the context checkpoints, the per-step timing table, and the
// LIFO cleanup chain that keeps early-return errors leak-free. What a
// planner keeps to itself is which sources it names and in what order its
// jobs run.

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
	// kernel holds the per-job verdicts until drain lands them, in job
	// order, in the pairs' folds.
	kernel verdicts
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

// appendTo appends stage 2 — plan → stream-verify → report — behind the
// step that settles what it reads; plan is stepPlanCandidates for the
// Merkle planners, the sweep for the direct one.
func (st *stage2) appendTo(p *engine.Plan, label string, plan engine.StepFunc, after engine.StepID) {
	planned := p.Add(engine.StepCoalesce, label, plan, after)
	verify := p.Add(engine.StepStreamVerify, "stream-verify", st.stepStreamVerify, planned)
	p.Add(engine.StepReport, "report", st.ms.Report, verify)
}

// stepPlanCandidates turns the candidate chunks of every pair and field
// into one batched read plan, so scattered reads amortize the queue
// latency once instead of once per field or pair, and a chunk several
// pairs need from one member is one extent, read once (byte-level
// coalescing then happens in the aio backend).
func (st *stage2) stepPlanCandidates(ctx context.Context, x *engine.Exec) error {
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
	// bytes, hence its leaf).
	st.plan.Degrade, st.plan.Check = true, st.checkExtent
	st.plan.Seal()
	st.leaves = make([][]leafRef, len(st.plan.Sources))
	for s, src := range st.plan.Sources {
		st.leaves[s] = make([]leafRef, len(src.Extents))
	}
	for i, j := range st.plan.Jobs {
		ref := st.refs[i]
		for side, at := range [2]stream.Ref{j.A, j.B} {
			m := st.ms.Pairs[ref.pair][side]
			st.leaves[at.Src][at.Ext] = leafRef{want: st.ms.Metas[m].Fields[ref.field].Tree.Leaf(ref.chunk), field: ref.field}
		}
	}
	return nil
}

// fieldHashers builds the ε-hasher of every selected field, one per
// dtype.
func (st *stage2) fieldHashers() error {
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
// bytes).
func (st *stage2) checkExtent(ctx context.Context, r, src, ext int, data []byte) bool {
	leaf, from := &st.leaves[src][ext], &st.plan.Sources[src]
	ok, _, cost := VerifyLeaf(ctx, st.hashers[leaf.field], data, leaf.want, from.File, from.Extents[ext].Off)
	st.kernel.ranges[r].rereadCost.Add(cost)
	return ok
}

// verifyJob is the stage-2 consumer callback: it hands one job's two sides
// to the kernel, which files the verdict under the job's index. It runs
// concurrently for distinct jobs of a window (stream.Compute), touching
// only slot j.Index and range r.
func (st *stage2) verifyJob(r int, j stream.Job, a, b []byte) (time.Duration, error) {
	ms, ref := st.ms, &st.refs[j.Index]
	job := ChunkJob{Hasher: st.hashers[ref.field], A: a, B: b, Base: ref.base}
	if ms.cs != nil && ms.opts.Memo != nil {
		pr := ms.Pairs[ref.pair]
		job.Memo = ms.opts.Memo
		job.DigestA = ms.mans[pr[0]].Fields[ref.field].Digests[ref.chunk]
		job.DigestB = ms.mans[pr[1]].Fields[ref.field].Digests[ref.chunk]
	}
	if err := st.kernel.verify(r, j.Index, &job); err != nil {
		return 0, err
	}
	// An unverifiable chunk still costs its compare time.
	return ms.opts.Device.CompareRateTime(int64(j.Len)), nil
}

// stepStreamVerify runs stage 2: the overlapped read+compare pipeline over
// the plan's windows. Under degrade the pipeline absorbs what the ladder
// allows — a source no read rung can serve drops the jobs naming it to the
// metadata-only verdict, a chunk failing its leaf hash twice is excluded
// from diffing — and the result is marked Degraded rather than failing the
// plan; compute errors and cancellation are never degraded away, and
// CAS-pruned chunks keep their proven verdict.
func (st *stage2) stepStreamVerify(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	ms, opts := st.ms, st.ms.opts
	if len(st.plan.Jobs) > 0 {
		exec := device.Cancelable{Done: ctx.Done(), Inner: opts.Exec}
		st.kernel.reset(len(st.plan.Jobs), stream.MaxRanges(exec))
		stats, err := stream.Run(ctx, st.plan, stream.Config{
			Backend:    opts.Backend,
			Arena:      opts.arena(),
			Exec:       exec,
			Device:     opts.Device,
			SliceBytes: opts.SliceBytes,
			Depth:      opts.Depth,
			Retry:      opts.Retry,
		}, st.verifyJob)
		if err != nil {
			return fmt.Errorf("compare: %s: %w", st.wrap, err)
		}
		st.drain()
		*ms.sink.bytesRead += stats.BytesRead
		*ms.sink.readRetries += stats.ReadRetries
		*ms.sink.ringFallbacks += stats.RingFallbacks
		if ms.Rep != nil {
			ms.Rep.PipelineVirtual = stats.PipelineVirtual
		}
		// Following the paper's timer structure (Fig. 6: "for small error
		// bounds, we need to load more data which is why the verification
		// time is dominant"), the verification phase owns its overlapped
		// data loading: the whole pipeline time is charged to CompareDirect,
		// while PhaseRead holds only the metadata reads.
		ms.sink.breakdown.AddVirtual(metrics.PhaseCompareDirect, stats.PipelineVirtual)
		x.AddVirtual(stats.PipelineVirtual)
		x.AddVirtual(st.kernel.chargeRereads(ms.store, ms.sink))
	}
	ms.sink.breakdown.AddWall(metrics.PhaseCompareDirect, sw.Lap())
	return nil
}

// drain lands the kernel's slots in the pairs' folds, in job order — the
// same at any worker count. A job the pipeline never delivered named a
// dead source: stage 1 proved its chunk could diverge and nothing verified
// it.
func (st *stage2) drain() {
	for i := range st.kernel.slots {
		ref := &st.refs[i]
		fold := st.ms.Fold(ref.pair)
		switch st.kernel.slots[i].verdict {
		case ChunkPending, ChunkUnverified:
			fold.Unverified++
		case ChunkChanged:
			fold.Add(ref.field, st.kernel.indices(i))
			if ref.chunk >= 0 {
				fold.Changed++
			}
		}
	}
}
