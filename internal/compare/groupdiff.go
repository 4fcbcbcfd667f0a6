package compare

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/simclock"
	"repro/internal/stream"
)

// This file holds the differential N-run group comparison. It composes
// the two read-reduction layers: the group layer already reads each
// member's candidate union once regardless of how many pairs share it,
// and the CAS layer collapses that further — every needed chunk is an
// extent of ONE shared pack, so chunks deduplicated across members (the
// common case for runs of the same simulation) occupy the same extent and
// are fetched exactly once for the whole group. CAS pruning (extent
// equality and memoized digest-pair verdicts) then removes candidates
// from stage 2 entirely, before the union is even assembled.

// GroupCompareDiff compares N differentially captured runs as one group:
// stage 1 runs every pair's tree diff from metadata loaded once per
// member, CAS pruning removes candidates whose verdict the store proves
// (never reported Unverified — their verdict is proven, not skipped),
// and the survivors are fetched from the shared pack with ONE
// deduplicated batched read covering every member of every pair.
// Member 0 is the baseline. Every member must have been captured into cs
// with its manifest and metadata on the store at the options' ε.
func GroupCompareDiff(ctx context.Context, store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := checkMemo(opts.Memo, opts.Epsilon); err != nil {
		return nil, err
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("compare: group needs at least one run besides the baseline")
	}
	members := append([]string{baseline}, runs...)
	pairIdx, err := topology.pairList(len(members))
	if err != nil {
		return nil, err
	}
	st := &groupState{
		store:    store,
		members:  members,
		topo:     topology,
		opts:     opts,
		pairIdx:  pairIdx,
		rep:      &GroupReport{Members: members, Topology: topology},
		diffMode: true,
		cs:       cs,
	}
	var p engine.Plan
	p.Retry = opts.Retry
	open := p.Add(engine.StepSetup, "open-manifests", st.stepOpenMembersDiff)
	load := p.Add(engine.StepLoadMetadata, "load-metadata", st.stepLoadMembers, open)
	diff := p.Add(engine.StepTreeDiff, "tree-diff", st.stepPairDiffs, load)
	prune := p.Add(engine.StepTreeDiff, "cas-prune", st.stepGroupCASPrune, diff)
	merge := p.Add(engine.StepCoalesce, "merge-pack-union", st.stepMergePackUnion, prune)
	verify := p.Add(engine.StepStreamVerify, "shared-read-verify", st.stepSharedVerifyDiff, merge)
	p.Add(engine.StepReport, "report", st.stepGroupReportDiff, verify)
	erep, err := engine.Execute(ctx, &p)
	st.rep.Steps = erep.Steps
	if err != nil {
		return nil, err
	}
	return st.rep, nil
}

// stepOpenMembersDiff loads and cross-validates every member's leaf
// manifest and opens the shared pack — the differential counterpart of
// stepOpenMembers (there are no container files to open).
func (st *groupState) stepOpenMembersDiff(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	st.startOps, st.startBytes = st.store.ReadStats()
	st.mans = make([]*cas.Manifest, len(st.members))
	var metaCost pfs.Cost
	for i, name := range st.members {
		m, cost, err := cas.LoadManifest(ctx, st.store, name)
		if err != nil {
			return err
		}
		metaCost.Add(cost)
		st.mans[i] = m
		if i > 0 && !cas.SameSchema(st.mans[0], m) {
			return fmt.Errorf("compare: manifests of %s and %s have different schemas", st.members[0], name)
		}
	}
	//lint:ignore floatcmp,epsflow manifest digests are only comparable at the exact ε they were captured with
	if st.mans[0].Epsilon != st.opts.Epsilon {
		return fmt.Errorf("compare: manifest ε %g does not match requested ε %g", st.mans[0].Epsilon, st.opts.Epsilon)
	}
	pack, err := st.cs.Pack()
	if err != nil {
		return err
	}
	x.CloseOnExit(pack)
	st.pack = pack
	st.rep.CheckpointBytes = st.mans[0].TotalBytes()

	st.rep.BytesRead += metaCost.TotalBytes()
	readV := st.store.Model().SerialReadTime(metaCost, st.store.Sharers())
	deserV := simclock.BandwidthTime(metaCost.TotalBytes(), deserializeBytesPerSec)
	st.rep.Breakdown.AddVirtual(metrics.PhaseRead, readV)
	st.rep.Breakdown.AddVirtual(metrics.PhaseDeserialize, deserV)
	st.rep.Breakdown.AddVirtual(metrics.PhaseSetup, st.opts.SetupVirtual)
	st.rep.Breakdown.AddWall(metrics.PhaseSetup, sw.Lap())
	x.AddVirtual(st.opts.SetupVirtual + readV + deserV)
	return nil
}

// stepGroupCASPrune removes candidate chunks whose verdict the store
// proves without reading, per pair: extent equality (both members
// deduplicated to the same pack extent) and memoized digest-pair
// verdicts, replayed into the pair's result at report time.
func (st *groupState) stepGroupCASPrune(ctx context.Context, x *engine.Exec) error {
	memo := st.opts.Memo
	st.replays = make([]map[int]map[int][]int64, len(st.pairIdx))
	for pi, pr := range st.pairIdx {
		a, b := pr[0], pr[1]
		res := st.rep.Pairs[pi].Result
		for fi, chunks := range st.pairCands[pi] {
			if len(chunks) == 0 {
				continue
			}
			fA := &st.mans[a].Fields[fi]
			fB := &st.mans[b].Fields[fi]
			chunkElems := int64(st.mans[a].ChunkSize) / int64(fA.DType.Size())
			kept := chunks[:0]
			for _, ci := range chunks {
				if fA.Locs[ci] == fB.Locs[ci] {
					res.CASPrunedChunks++
					continue
				}
				if memo != nil {
					if idx, ok := memo.lookup(fA.Digests[ci], fB.Digests[ci], fA.DType); ok {
						res.CASPrunedChunks++
						st.recordReplay(pi, fi, ci, int64(ci)*chunkElems, idx)
						continue
					}
				}
				kept = append(kept, ci)
			}
			if len(kept) == 0 {
				kept = nil
			}
			st.pairCands[pi][fi] = kept
		}
	}
	return nil
}

// recordReplay stashes one memoized chunk verdict (absolute element
// indices) for materialization into the pair's result at report time.
func (st *groupState) recordReplay(pi, fi, ci int, baseElem int64, idx []int64) {
	if st.replays[pi] == nil {
		st.replays[pi] = make(map[int]map[int][]int64)
	}
	if st.replays[pi][fi] == nil {
		st.replays[pi][fi] = make(map[int][]int64)
	}
	abs := make([]int64, len(idx))
	for i, e := range idx {
		abs[i] = baseElem + e
	}
	st.replays[pi][fi][ci] = abs
}

// stepMergePackUnion builds the group's single read plan: the union of
// every surviving (member, field, chunk) need, as distinct pack extents —
// a chunk deduplicated across members (or needed by several pairs) is read
// exactly once for the whole group. Each member's union fields index the
// shared buffer by extent, so verifyPair works unchanged.
func (st *groupState) stepMergePackUnion(ctx context.Context, x *engine.Exec) error {
	st.planUnionFields()
	var locs []cas.Loc
	for m := range st.unions {
		for fi := range st.unions[m].fields {
			for _, ci := range st.unions[m].fields[fi].chunks {
				locs = append(locs, st.mans[m].Fields[fi].Locs[ci])
			}
		}
	}
	slices.SortFunc(locs, cmpLoc)
	locs = slices.Compact(locs)
	st.packLocs = locs

	// starts[k] is where extent k lands in the shared buffer.
	starts := make([]int64, len(locs))
	for k, loc := range locs {
		starts[k] = st.packUnion.bytes
		st.packUnion.bytes += int64(loc.Len)
	}
	for m := range st.unions {
		for fi := range st.unions[m].fields {
			uf := &st.unions[m].fields[fi]
			if len(uf.chunks) == 0 {
				continue
			}
			uf.pos = make([]int64, len(uf.chunks))
			for k, ci := range uf.chunks {
				at, _ := slices.BinarySearchFunc(locs, st.mans[m].Fields[fi].Locs[ci], cmpLoc)
				uf.pos[k] = starts[at]
			}
		}
	}
	return nil
}

// cmpLoc orders pack extents by offset (then length).
func cmpLoc(a, b cas.Loc) int {
	if c := cmp.Compare(a.Off, b.Off); c != 0 {
		return c
	}
	return cmp.Compare(a.Len, b.Len)
}

// checkoutPackUnion backs the pack read plan with a buffer set from the
// stage-2 arena, builds its request batch in extent order, and points
// every member's view at the shared buffer. The verify step's deferred
// returnUnions hands the set back.
func (st *groupState) checkoutPackUnion() {
	u := &st.packUnion
	if u.bytes == 0 {
		return
	}
	u.set = st.opts.arena().Get(int(u.bytes), 0)
	u.buf = u.set.A[:u.bytes]
	reqs := u.set.ReqsA[:0]
	var pos int64
	for _, loc := range st.packLocs {
		reqs = append(reqs, aio.ReadReq{Off: loc.Off, Len: int(loc.Len), Buf: u.buf[pos : pos+int64(loc.Len)], Tag: len(reqs)})
		pos += int64(loc.Len)
	}
	u.set.ReqsA, u.reqs = reqs, reqs
	for m := range st.unions {
		st.unions[m].buf = u.buf
	}
}

// stepSharedVerifyDiff runs the differential stage 2: one batched read of
// the pack union (retried on Transient errors, degrading to a fresh-ring
// aio.Legacy read on a closed shared ring), then every pair verifies from
// the shared buffer. Under Options.Degrade a read that still fails drops
// every pair's SURVIVING candidates to the metadata-only verdict — pruned
// chunks keep their proven verdict and are never counted Unverified.
func (st *groupState) stepSharedVerifyDiff(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	vp := stream.NewVirtualPipeline(st.opts.Depth)
	if err := st.fieldHashers(); err != nil {
		return err
	}
	st.checkoutPackUnion()
	defer st.returnUnions()
	u := &st.packUnion

	loaded := len(u.reqs) == 0
	var io time.Duration
	if !loaded {
		attempts := 0
		backoff, err := st.opts.Retry.Do(ctx, func(attempt int) error {
			attempts = attempt + 1
			var rerr error
			_, io, rerr = st.opts.Backend.ReadBatch(ctx, st.pack, u.reqs)
			return rerr
		})
		st.rep.ReadRetries += attempts - 1
		io += backoff
		if err != nil && errors.Is(err, aio.ErrRingClosed) {
			leg := aio.Legacy{}
			var lio time.Duration
			_, lio, err = leg.ReadBatch(ctx, st.pack, u.reqs)
			io += lio
			if err == nil {
				st.rep.RingFallbacks++
			}
		}
		switch {
		case err == nil:
			loaded = true
			st.rep.BytesRead += u.bytes
		case st.opts.Degrade && ctx.Err() == nil:
		default:
			return fmt.Errorf("compare: group verification: %w", err)
		}
	}

	var comp time.Duration
	for pi := range st.pairIdx {
		if !st.pairHasCands(pi) {
			continue
		}
		if !loaded {
			res := st.rep.Pairs[pi].Result
			res.Degraded = true
			for _, chunks := range st.pairCands[pi] {
				res.UnverifiedChunks += len(chunks)
			}
			continue
		}
		c, err := st.verifyPair(ctx, pi)
		if err != nil {
			return err
		}
		comp += c
	}
	vp.Advance(io, comp)
	st.foldGroupRereads(x)
	st.rep.PipelineVirtual = vp.Total()
	st.rep.Breakdown.AddVirtual(metrics.PhaseCompareDirect, vp.Total())
	st.rep.Breakdown.AddWall(metrics.PhaseCompareDirect, sw.Lap())
	x.AddVirtual(vp.Total())
	return nil
}

// stepGroupReportDiff materializes the memo replays into the pair results
// — exactly as a stage-2 verification of the same chunks would have —
// then runs the standard store-level accounting.
func (st *groupState) stepGroupReportDiff(ctx context.Context, x *engine.Exec) error {
	for pi, fieldMap := range st.replays {
		if len(fieldMap) == 0 {
			continue
		}
		res := st.rep.Pairs[pi].Result
		fis := make([]int, 0, len(fieldMap))
		for fi := range fieldMap {
			fis = append(fis, fi)
		}
		sort.Ints(fis)
		for _, fi := range fis {
			name := st.metas[0].Fields[fi].Name
			var indices []int64
			changed := 0
			cis := make([]int, 0, len(fieldMap[fi]))
			for ci := range fieldMap[fi] {
				cis = append(cis, ci)
			}
			sort.Ints(cis)
			for _, ci := range cis {
				if idx := fieldMap[fi][ci]; len(idx) > 0 {
					changed++
					indices = append(indices, idx...)
				}
			}
			if changed == 0 {
				continue
			}
			res.ChangedChunks += changed
			res.DiffCount += int64(len(indices))
			merged := false
			for di := range res.Diffs {
				if res.Diffs[di].Field == name {
					res.Diffs[di].Indices = append(res.Diffs[di].Indices, indices...)
					sort.Slice(res.Diffs[di].Indices, func(i, j int) bool {
						return res.Diffs[di].Indices[i] < res.Diffs[di].Indices[j]
					})
					merged = true
					break
				}
			}
			if !merged {
				sort.Slice(indices, func(i, j int) bool { return indices[i] < indices[j] })
				res.Diffs = append(res.Diffs, FieldDiff{Field: name, Indices: indices})
			}
		}
		// Replays can introduce a field out of order; restore field order.
		order := make(map[string]int, len(st.metas[0].Fields))
		for fi := range st.metas[0].Fields {
			order[st.metas[0].Fields[fi].Name] = fi
		}
		sort.SliceStable(res.Diffs, func(i, j int) bool {
			return order[res.Diffs[i].Field] < order[res.Diffs[j].Field]
		})
	}
	return st.stepGroupReport(ctx, x)
}
