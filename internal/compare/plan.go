package compare

import (
	"fmt"
	"time"

	"context"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/simclock"
	"repro/internal/stream"
)

// This file holds the shared plan-step vocabulary of the comparison entry
// points. Every entry point (CompareMerkle, CompareDirect, CompareAllClose,
// CompareTreesOnly, and through them the history/evolution/compaction
// planners) is a thin planner: it assembles an engine.Plan from the step
// builders below and hands it to engine.Execute, which supplies the
// context checkpoints, the per-step timing table, and the LIFO cleanup
// chain that keeps early-return errors leak-free.

// fieldCandidates is one field's stage-1 output: the candidate chunks the
// tree diff could not prune.
type fieldCandidates struct {
	field  int
	chunks []int
}

// chunkRef maps one streamed chunk pair back to its field and element
// base. chunk is the Merkle chunk index for changed-chunk accounting, or
// -1 for the direct sweep (which has no chunk notion). offA and offB are
// the absolute file offsets the chunk streams from — field-relative in
// the checkpoint container, or pack extents in differential mode.
type chunkRef struct {
	field    int
	chunk    int
	baseElem int64
	hasher   *errbound.Hasher
	offA     int64
	offB     int64
}

// pairState carries one checkpoint pair's comparison through its plan
// steps. Steps communicate exclusively through this state; the context
// arrives per step through the engine (never stored — the ctxflow rule).
type pairState struct {
	store        *pfs.Store
	nameA, nameB string
	opts         Options
	res          *Result

	// verifyWrap labels stage-2 errors ("verification", "direct").
	verifyWrap string
	// dataless marks metadata-only plans (CompareTreesOnly): no readers,
	// all fields compared, element totals taken from the trees.
	dataless bool

	ra, rb   *ckpt.Reader
	ma, mb   *Metadata
	selected func(string) bool

	// Differential (CAS) mode: leaf manifests replace the checkpoint
	// readers and stage 2 streams representative bytes from the shared
	// pack file instead of the two containers.
	diffMode   bool
	cs         *cas.Store
	manA, manB *cas.Manifest
	pack       *pfs.File

	candidates []fieldCandidates
	pairs      []stream.ChunkPair
	refs       []chunkRef

	// kernel holds stage 2's per-chunk verdicts until foldVerdicts drains
	// them, in pair order, into the fields below.
	kernel        verdicts
	fieldDiffs    map[int][]int64
	changedChunks int // Merkle chunks with a divergent element (verified or replayed)

	// Degradation-ladder bookkeeping (Options.Degrade).
	verified   int  // chunk pairs cleanly verified by stage 2
	unverified int  // chunk pairs that failed integrity verification
	computeErr bool // a compute-callback error: never degraded away
}

func newPairState(store *pfs.Store, nameA, nameB string, opts Options, method string) *pairState {
	return &pairState{
		store:      store,
		nameA:      nameA,
		nameB:      nameB,
		opts:       opts,
		res:        &Result{Method: method},
		verifyWrap: "verification",
		fieldDiffs: make(map[int][]int64),
	}
}

// runPlan executes the plan and attaches the per-step timing table to the
// result. Step errors come back unwrapped; on failure the result is
// dropped (the engine report recorded which step failed).
func (st *pairState) runPlan(ctx context.Context, p *engine.Plan) (*Result, error) {
	rep, err := engine.Execute(ctx, p)
	st.res.Steps = rep.Steps
	if err != nil {
		return nil, err
	}
	return st.res, nil
}

// stepOpenPair opens both checkpoints, registers them on the cleanup
// chain, and validates the schemas match.
func (st *pairState) stepOpenPair(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	ra, _, err := ckpt.OpenReader(st.store, st.nameA)
	if err != nil {
		return err
	}
	x.CloseOnExit(ra)
	rb, _, err := ckpt.OpenReader(st.store, st.nameB)
	if err != nil {
		return err
	}
	x.CloseOnExit(rb)
	if !ckpt.SameSchema(ra.Meta(), rb.Meta()) {
		return fmt.Errorf("compare: %s and %s have different schemas", st.nameA, st.nameB)
	}
	st.ra, st.rb = ra, rb
	st.res.CheckpointBytes = ra.Meta().TotalBytes()
	st.res.Breakdown.AddVirtual(metrics.PhaseSetup, st.opts.SetupVirtual)
	st.res.Breakdown.AddWall(metrics.PhaseSetup, sw.Lap())
	x.AddVirtual(st.opts.SetupVirtual)
	return nil
}

// stepSetupVirtual charges the fixed setup cost for plans that open no
// checkpoint data (metadata-only comparison).
func (st *pairState) stepSetupVirtual(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	st.res.Breakdown.AddVirtual(metrics.PhaseSetup, st.opts.SetupVirtual)
	st.res.Breakdown.AddWall(metrics.PhaseSetup, sw.Lap())
	x.AddVirtual(st.opts.SetupVirtual)
	return nil
}

// stepLoadMetadata loads both runs' Merkle metadata (Read phase), prices
// deserialization, and validates ε and field parity.
func (st *pairState) stepLoadMetadata(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	model := st.store.Model()
	sharers := st.store.Sharers()
	ma, costA, dwallA, err := LoadMetadata(ctx, st.store, st.nameA)
	if err != nil {
		return err
	}
	mb, costB, dwallB, err := LoadMetadata(ctx, st.store, st.nameB)
	if err != nil {
		return err
	}
	st.ma, st.mb = ma, mb
	st.res.RootA, st.res.RootB = ma.CombinedRoot(), mb.CombinedRoot()
	var metaCost pfs.Cost
	metaCost.Add(costA)
	metaCost.Add(costB)
	st.res.MetadataBytes = ma.Bytes()
	st.res.BytesRead += metaCost.TotalBytes()
	readV := model.SerialReadTime(metaCost, sharers)
	deserV := simclock.BandwidthTime(metaCost.TotalBytes(), deserializeBytesPerSec)
	st.res.Breakdown.AddVirtual(metrics.PhaseRead, readV)
	st.res.Breakdown.AddWall(metrics.PhaseRead, sw.Lap())
	st.res.Breakdown.AddVirtual(metrics.PhaseDeserialize, deserV)
	st.res.Breakdown.AddWall(metrics.PhaseDeserialize, dwallA+dwallB)
	x.AddVirtual(readV + deserV)

	if err := checkMetaPair(ma, mb, st.opts.Epsilon); err != nil {
		return err
	}
	if st.dataless {
		st.selected = func(string) bool { return true }
		return nil
	}
	fieldNames := make([]string, len(ma.Fields))
	for i := range ma.Fields {
		fieldNames[i] = ma.Fields[i].Name
	}
	selected, err := st.opts.fieldFilter(fieldNames)
	if err != nil {
		return err
	}
	st.selected = selected
	return nil
}

// checkMetaPair validates that two metadata files are comparable with each
// other at the requested ε.
func checkMetaPair(ma, mb *Metadata, eps float64) error {
	//lint:ignore floatcmp metadata is only valid for the exact ε it was built with; bitwise equality is the contract
	if ma.Epsilon != eps || mb.Epsilon != eps {
		return fmt.Errorf("compare: metadata ε (%g, %g) does not match requested ε %g",
			ma.Epsilon, mb.Epsilon, eps)
	}
	if len(ma.Fields) != len(mb.Fields) {
		return fmt.Errorf("compare: metadata field counts differ: %d vs %d",
			len(ma.Fields), len(mb.Fields))
	}
	return nil
}

// CheckMetaPair validates that two metadata files are comparable with
// each other at the requested ε — the same gate every pairwise planner
// runs. Exported for out-of-package planners (internal/shard).
func CheckMetaPair(ma, mb *Metadata, eps float64) error {
	return checkMetaPair(ma, mb, eps)
}

// stepTreeDiff runs stage 1: the pruned BFS tree diff per selected field
// (CompareTree phase). The executor is wrapped so a canceled context
// stops the diff kernels between poll intervals.
func (st *pairState) stepTreeDiff(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	exec := device.Cancelable{Done: ctx.Done(), Inner: st.opts.Exec}
	var treeVirtual time.Duration
	for fi := range st.ma.Fields {
		fm := st.ma.Fields[fi]
		if !st.selected(fm.Name) {
			continue
		}
		ta, tb := fm.Tree, st.mb.Fields[fi].Tree
		start := st.opts.StartLevel
		if start < 0 {
			start = ta.DefaultStartLevel(exec.Workers())
		}
		chunks, nodes, err := merkle.Diff(ta, tb, start, exec)
		if err != nil {
			return fmt.Errorf("compare: field %q: %w", fm.Name, err)
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		st.res.TotalChunks += ta.NumChunks()
		st.res.CandidateChunks += len(chunks)
		if len(chunks) > 0 {
			st.candidates = append(st.candidates, fieldCandidates{field: fi, chunks: chunks})
		}
		if st.dataless {
			// Metadata-only comparison takes its totals from the trees and
			// (as before the engine refactor) prices no diff kernels: the
			// stage-1-only paths report chunk fractions, not device time.
			st.res.TotalElements += ta.DataLen() / int64(fm.DType.Size())
			st.res.CheckpointBytes += ta.DataLen()
			continue
		}
		// One kernel per visited level (bounded by depth), nodes at the
		// node-hash comparison rate.
		levels := ta.Depth() - start + 1
		treeVirtual += time.Duration(levels)*st.opts.Device.KernelLaunch +
			simclock.BandwidthTime(nodes*16, float64(st.opts.Device.NodeHashesPerSec)*16)
	}
	st.res.Breakdown.AddVirtual(metrics.PhaseCompareTree, treeVirtual)
	st.res.Breakdown.AddWall(metrics.PhaseCompareTree, sw.Lap())
	x.AddVirtual(treeVirtual)
	return nil
}

// stepAssemblePairs turns the candidate chunks of every field into one
// batched stage-2 read plan, so scattered reads amortize the queue latency
// once instead of once per field (byte-level coalescing then happens in
// the aio backend).
func (st *pairState) stepAssemblePairs(ctx context.Context, x *engine.Exec) error {
	hashers := make(map[errbound.DType]*errbound.Hasher)
	for _, fc := range st.candidates {
		fi := fc.field
		fm := st.ma.Fields[fi]
		hasher := hashers[fm.DType]
		if hasher == nil {
			h, err := st.opts.hasherFor(fm.DType)
			if err != nil {
				return err
			}
			hashers[fm.DType] = h
			hasher = h
		}
		tree := fm.Tree
		var baseA, baseB int64
		if !st.diffMode {
			baseA = st.ra.FieldFileOffset(fi)
			baseB = st.rb.FieldFileOffset(fi)
		}
		eltSize := int64(fm.DType.Size())
		chunkElems := int64(tree.ChunkSize()) / eltSize
		for _, ci := range fc.chunks {
			off, n := tree.ChunkRange(ci)
			offA, offB := baseA+off, baseB+off
			if st.diffMode {
				// Stream each side's representative bytes from its pack
				// extent; the manifest pins extent length to chunk length.
				locA := st.manA.Fields[fi].Locs[ci]
				locB := st.manB.Fields[fi].Locs[ci]
				if int(locA.Len) != n || int(locB.Len) != n {
					return fmt.Errorf("compare: field %q chunk %d: pack extents %d/%d bytes, tree says %d",
						fm.Name, ci, locA.Len, locB.Len, n)
				}
				offA, offB = locA.Off, locB.Off
			}
			st.pairs = append(st.pairs, stream.ChunkPair{
				Index: len(st.refs),
				OffA:  offA,
				OffB:  offB,
				Len:   n,
			})
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
		if st.diffMode && st.opts.Memo != nil {
			job.Memo = st.opts.Memo
			job.DigestA = st.manA.Fields[ref.field].Digests[ref.chunk]
			job.DigestB = st.manB.Fields[ref.field].Digests[ref.chunk]
		}
	}
	if err := st.kernel.verify(r, p.Index, &job); err != nil {
		return 0, err
	}
	// An unverifiable chunk still costs its compare time.
	return st.opts.Device.CompareRateTime(int64(len(a))), nil
}

// CheckedSide implements LeafChecker: one side's streamed chunk against
// the leaf hash its metadata was built from. In differential mode the
// re-read gathers the representative from its pack extent; the leaf-hash
// check is what turns a torn or rotted CAS chunk into Corrupt instead of
// a silent dedup hit.
func (st *pairState) CheckedSide(r, i, side int, data []byte) []byte {
	ref := &st.refs[i]
	m, off := st.ma, ref.offA
	if side == SideB {
		m, off = st.mb, ref.offB
	}
	f := st.pack
	if !st.diffMode {
		if side == SideB {
			f = st.rb.File()
		} else {
			f = st.ra.File()
		}
	}
	verified, _, cost := VerifyLeaf(ref.hasher, data, m.Fields[ref.field].Tree.Leaf(ref.chunk), f, off)
	st.kernel.ranges[r].rereadCost.Add(cost)
	return verified
}

// foldVerdicts drains the kernel's slots into the divergence lists and
// the ladder's counters, in pair order. Pairs the stream never reached
// stay pending and are left to the caller.
func (st *pairState) foldVerdicts() {
	for i := range st.kernel.slots {
		ref := &st.refs[i]
		switch st.kernel.slots[i].verdict {
		case ChunkUnverified:
			st.unverified++
		case ChunkClean:
			st.verified++
		case ChunkChanged:
			st.verified++
			st.fieldDiffs[ref.field] = append(st.fieldDiffs[ref.field], st.kernel.indices(i)...)
			if ref.chunk >= 0 {
				st.changedChunks++
			}
		}
	}
	st.computeErr = st.kernel.failed()
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
		fA, fB := st.pack, st.pack
		if !st.diffMode {
			fA, fB = st.ra.File(), st.rb.File()
		}
		exec := device.Cancelable{Done: ctx.Done(), Inner: st.opts.Exec}
		st.kernel.reset(len(st.pairs), stream.MaxRanges(exec))
		stats, err := stream.Run(ctx, fA, fB, st.pairs, stream.Config{
			Backend:    st.opts.Backend,
			Exec:       exec,
			Device:     st.opts.Device,
			SliceBytes: st.opts.SliceBytes,
			Depth:      st.opts.Depth,
			Retry:      st.opts.Retry,
		}, st.verifyCompute)
		st.foldVerdicts()
		st.res.BytesRead += stats.BytesRead
		st.res.ReadRetries += stats.ReadRetries
		st.res.RingFallbacks += stats.RingFallbacks
		addPipeline(&st.res.Breakdown, stats)
		x.AddVirtual(stats.PipelineVirtual)
		st.foldRereads(x)
		if err != nil {
			// Degradation applies only to the Merkle path: stage 1 already
			// bounded what the missing chunks could hide. The direct sweep
			// has no such net, and compute or cancellation errors are never
			// degraded away.
			if !st.opts.Degrade || st.verifyWrap != "verification" ||
				st.computeErr || ctx.Err() != nil {
				return fmt.Errorf("compare: %s: %w", st.verifyWrap, err)
			}
			if missing := len(st.pairs) - st.verified - st.unverified; missing > 0 {
				st.unverified += missing
			}
		}
		if st.unverified > 0 {
			st.res.Degraded = true
			st.res.UnverifiedChunks += st.unverified
		}
	}
	st.res.Breakdown.AddWall(metrics.PhaseCompareDirect, sw.Lap())
	return nil
}

// foldRereads prices the integrity re-reads issued by the kernel into the
// result and the plan clock.
func (st *pairState) foldRereads(x *engine.Exec) {
	cost := st.kernel.takeRereadCost()
	if cost == (pfs.Cost{}) {
		return
	}
	st.res.BytesRead += cost.TotalBytes()
	v := st.store.Model().SerialReadTime(cost, st.store.Sharers())
	st.res.Breakdown.AddVirtual(metrics.PhaseRead, v)
	x.AddVirtual(v)
}

// sortedFieldDiffs drains the accumulated per-field divergence indices
// into the result, ascending, in field order.
func (st *pairState) sortedFieldDiffs(fieldName func(int) string, numFields int) {
	for fi := 0; fi < numFields; fi++ {
		if idx := st.fieldDiffs[fi]; len(idx) > 0 {
			sortIndices(idx)
			st.res.Diffs = append(st.res.Diffs, FieldDiff{Field: fieldName(fi), Indices: idx})
			st.res.DiffCount += int64(len(idx))
		}
	}
}
