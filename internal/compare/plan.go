package compare

import (
	"fmt"
	"time"

	"context"

	"repro/internal/cas"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/stream"
)

// This file holds the pair planners' stage 2: the candidate chunks stage 1
// (memberset.go) left for the pair (0, 1) of a two-member set become one
// batched read plan, streamed through the overlapped slice pipeline and
// verified by the kernel (verify.go). Every pair entry point
// (CompareMerkle, CompareDiff, CompareDirect, CompareAllClose,
// CompareTreesOnly, and through them the history/evolution/compaction
// planners) is a thin planner: it assembles an engine.Plan from the member
// set's steps and the steps below and hands it to engine.Execute, which
// supplies the context checkpoints, the per-step timing table, and the
// LIFO cleanup chain that keeps early-return errors leak-free.

// chunkRef maps one streamed chunk pair back to its field and element
// base. chunk is the Merkle chunk index for changed-chunk accounting, or
// -1 for the direct sweep (which has no chunk notion). offA and offB are
// the absolute file offsets the chunk streams from.
type chunkRef struct {
	field    int
	chunk    int
	baseElem int64
	hasher   *errbound.Hasher
	offA     int64
	offB     int64
}

// pairState carries one checkpoint pair's comparison through stage 2.
type pairState struct {
	ms   *MemberSet
	opts Options
	res  *Result

	// verifyWrap labels stage-2 errors ("verification", "direct").
	verifyWrap string

	pairs []stream.ChunkPair
	refs  []chunkRef
	// kernel holds stage 2's per-chunk verdicts until foldVerdicts drains
	// them, in pair order, into the member set's fold.
	kernel verdicts
}

// newPairState validates and defaults the options and returns the state
// of a pair plan over the member set [A, B]; cs makes it differential.
func newPairState(store *pfs.Store, cs *cas.Store, nameA, nameB string, opts Options, method string) (*pairState, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	res := &Result{Method: method}
	return &pairState{
		ms:         newPairSet(store, cs, nameA, nameB, opts, res),
		opts:       opts,
		res:        res,
		verifyWrap: "verification",
	}, nil
}

// runPlan executes the plan; on failure the result is dropped.
func (st *pairState) runPlan(ctx context.Context, p *engine.Plan) (*Result, error) {
	if err := st.ms.Execute(ctx, p); err != nil {
		return nil, err
	}
	return st.res, nil
}

// runVerify appends the pair stage 2 — assemble → stream-verify → report —
// behind stage 1 and executes the plan.
func (st *pairState) runVerify(ctx context.Context, p *engine.Plan, stage1 engine.StepID) (*Result, error) {
	coal := p.Add(engine.StepCoalesce, "assemble-batches", st.stepAssemblePairs, stage1)
	verify := p.Add(engine.StepStreamVerify, "stream-verify", st.stepStreamVerify, coal)
	p.Add(engine.StepReport, "report", st.ms.Report, verify)
	return st.runPlan(ctx, p)
}

// stepAssemblePairs turns the candidate chunks of every field into one
// batched stage-2 read plan, so scattered reads amortize the queue latency
// once instead of once per field (byte-level coalescing then happens in
// the aio backend).
func (st *pairState) stepAssemblePairs(ctx context.Context, x *engine.Exec) error {
	ms := st.ms
	hashers := make(map[errbound.DType]*errbound.Hasher)
	for fi, chunks := range ms.Cands[0] {
		if len(chunks) == 0 {
			continue
		}
		fm := ms.Metas[0].Fields[fi]
		hasher := hashers[fm.DType]
		if hasher == nil {
			h, err := st.opts.hasherFor(fm.DType)
			if err != nil {
				return err
			}
			hashers[fm.DType] = h
			hasher = h
		}
		chunkElems := int64(fm.Tree.ChunkSize() / fm.DType.Size())
		for _, ci := range chunks {
			_, n := fm.Tree.ChunkRange(ci)
			if ms.cs != nil {
				// The manifest pins extent length to chunk length.
				locA, locB := ms.mans[0].Fields[fi].Locs[ci], ms.mans[1].Fields[fi].Locs[ci]
				if int(locA.Len) != n || int(locB.Len) != n {
					return fmt.Errorf("compare: field %q chunk %d: pack extents %d/%d bytes, tree says %d",
						fm.Name, ci, locA.Len, locB.Len, n)
				}
			}
			offA, offB := ms.chunkOff(0, fi, ci), ms.chunkOff(1, fi, ci)
			st.pairs = append(st.pairs, stream.ChunkPair{Index: len(st.refs), OffA: offA, OffB: offB, Len: n})
			st.refs = append(st.refs, chunkRef{
				field:    fi,
				chunk:    ci,
				baseElem: int64(ci) * chunkElems,
				hasher:   hasher,
				offA:     offA,
				offB:     offB,
			})
		}
	}
	return nil
}

// verifyCompute is the stage-2 consumer callback shared by the Merkle and
// direct plans: it hands one chunk pair to the kernel, which files the
// verdict under the pair's index. It runs concurrently for distinct pairs
// of a slice (stream.Compute), touching only slot p.Index and range r.
func (st *pairState) verifyCompute(r int, p stream.ChunkPair, a, b []byte) (time.Duration, error) {
	ref := &st.refs[p.Index]
	job := ChunkJob{Hasher: ref.hasher, A: a, B: b, Base: ref.baseElem}
	if ref.chunk >= 0 {
		if st.opts.Degrade {
			job.Leaves, job.R, job.I = st, r, p.Index
		}
		if st.ms.cs != nil && st.opts.Memo != nil {
			job.Memo = st.opts.Memo
			job.DigestA = st.ms.mans[0].Fields[ref.field].Digests[ref.chunk]
			job.DigestB = st.ms.mans[1].Fields[ref.field].Digests[ref.chunk]
		}
	}
	if err := st.kernel.verify(r, p.Index, &job); err != nil {
		return 0, err
	}
	// An unverifiable chunk still costs its compare time.
	return st.opts.Device.CompareRateTime(int64(len(a))), nil
}

// CheckedSide implements LeafChecker: one side's streamed chunk against
// the leaf hash its metadata was built from, re-read on mismatch from
// where it streamed — the member's container, or its pack extent in
// differential mode, where the leaf-hash check is what turns a torn or
// rotted CAS chunk into Corrupt instead of a silent dedup hit.
func (st *pairState) CheckedSide(r, i, side int, data []byte) []byte {
	ref := &st.refs[i]
	off := ref.offA
	if side == SideB {
		off = ref.offB
	}
	leaf := st.ms.Metas[side].Fields[ref.field].Tree.Leaf(ref.chunk)
	verified, _, cost := VerifyLeaf(ref.hasher, data, leaf, st.ms.file(side), off)
	st.kernel.ranges[r].rereadCost.Add(cost)
	return verified
}

// foldVerdicts drains the kernel's slots into the pair's fold, in pair
// order, and returns how many pairs the kernel reached (verified or not).
// Pairs the stream never reached stay pending and are left to the caller.
func (st *pairState) foldVerdicts() (reached int) {
	fold := st.ms.Fold(0)
	for i := range st.kernel.slots {
		ref := &st.refs[i]
		switch st.kernel.slots[i].verdict {
		case ChunkUnverified:
			fold.Unverified++
			reached++
		case ChunkClean:
			reached++
		case ChunkChanged:
			reached++
			fold.Add(ref.field, st.kernel.indices(i))
			if ref.chunk >= 0 {
				fold.Changed++
			}
		}
	}
	return reached
}

// stepStreamVerify runs stage 2: the overlapped read+compare pipeline over
// the assembled chunk pairs. With Options.Degrade set, a Merkle-path pair
// whose stream fails (after retries and the ring fallback) degrades to a
// metadata-only verdict: diffs already proven stay, the remaining pairs
// are counted Unverified, and the result is marked Degraded rather than
// failing the plan.
func (st *pairState) stepStreamVerify(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	if len(st.pairs) > 0 {
		exec := device.Cancelable{Done: ctx.Done(), Inner: st.opts.Exec}
		st.kernel.reset(len(st.pairs), stream.MaxRanges(exec))
		stats, err := stream.Run(ctx, st.ms.file(0), st.ms.file(1), st.pairs, stream.Config{
			Backend:    st.opts.Backend,
			Exec:       exec,
			Device:     st.opts.Device,
			SliceBytes: st.opts.SliceBytes,
			Depth:      st.opts.Depth,
			Retry:      st.opts.Retry,
		}, st.verifyCompute)
		reached := st.foldVerdicts()
		st.res.BytesRead += stats.BytesRead
		st.res.ReadRetries += stats.ReadRetries
		st.res.RingFallbacks += stats.RingFallbacks
		// Following the paper's timer structure (Fig. 6: "for small error
		// bounds, we need to load more data which is why the verification
		// time is dominant"), the verification phase owns its overlapped
		// data loading: the whole pipeline time is charged to CompareDirect,
		// while PhaseRead holds only the metadata reads.
		st.res.Breakdown.AddVirtual(metrics.PhaseCompareDirect, stats.PipelineVirtual)
		x.AddVirtual(stats.PipelineVirtual)
		x.AddVirtual(st.kernel.chargeRereads(st.ms.store, st.ms.sink))
		if err != nil {
			// Degradation applies only to the Merkle path: stage 1 already
			// bounded what the missing chunks could hide. The direct sweep
			// has no such net, and compute or cancellation errors are never
			// degraded away.
			if !st.opts.Degrade || st.verifyWrap != "verification" ||
				st.kernel.failed() || ctx.Err() != nil {
				return fmt.Errorf("compare: %s: %w", st.verifyWrap, err)
			}
			st.ms.Fold(0).Unverified += len(st.pairs) - reached
		}
	}
	st.res.Breakdown.AddWall(metrics.PhaseCompareDirect, sw.Lap())
	return nil
}
