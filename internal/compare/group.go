package compare

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/stream"
)

// Topology selects which checkpoint pairs an N-run group comparison
// covers.
type Topology int

// Group-comparison topologies.
const (
	// TopologyStar compares every run against the baseline (N-1 pairs):
	// the reproducibility question "which runs diverge from the
	// reference?".
	TopologyStar Topology = iota + 1
	// TopologyAllPairs compares every run against every other
	// (N·(N-1)/2 pairs): the ensemble question "which runs diverge from
	// each other?".
	TopologyAllPairs
)

// String returns the topology's report name.
func (t Topology) String() string {
	switch t {
	case TopologyStar:
		return "star"
	case TopologyAllPairs:
		return "all-pairs"
	default:
		return fmt.Sprintf("Topology(%d)", int(t))
	}
}

// pairList enumerates the member-index pairs of a topology over n members
// (member 0 is the baseline).
func (t Topology) pairList(n int) ([][2]int, error) {
	var out [][2]int
	switch t {
	case TopologyStar:
		for i := 1; i < n; i++ {
			out = append(out, [2]int{0, i})
		}
	case TopologyAllPairs:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				out = append(out, [2]int{i, j})
			}
		}
	default:
		return nil, fmt.Errorf("compare: unknown topology %d", int(t))
	}
	return out, nil
}

// GroupPairReport is one pair's outcome within a group comparison.
type GroupPairReport struct {
	// A and B index GroupReport.Members.
	A, B int
	// NameA and NameB are the compared checkpoint names.
	NameA, NameB string
	// Result is the pair's comparison outcome (method "merkle-group").
	Result *Result
}

// GroupReport is the outcome of one N-run group comparison.
type GroupReport struct {
	// Members lists the compared checkpoints; index 0 is the baseline.
	Members []string
	// Topology is the pair coverage.
	Topology Topology
	// Pairs holds one report per compared pair, in topology order.
	Pairs []GroupPairReport
	// ReadOps and ReadBytes are the store-level PFS read operations and
	// bytes the whole group comparison issued (metadata + shared candidate
	// reads, after coalescing) — the quantity GroupCompare minimizes
	// versus sequential pairwise comparison.
	ReadOps, ReadBytes int64
	// BytesRead counts data + metadata bytes delivered to the comparator.
	BytesRead int64
	// MetadataBytes is the serialized metadata size per member.
	MetadataBytes int64
	// CheckpointBytes is the raw data size of ONE member's checkpoint.
	CheckpointBytes int64
	// PipelineVirtual is the overlapped virtual time of the shared
	// stage-2 read+verify pipeline.
	PipelineVirtual time.Duration
	// Breakdown is the group-level per-phase cost split.
	Breakdown metrics.Breakdown
	// Steps is the engine's per-step timing table.
	Steps metrics.StepSpans
	// ReadRetries counts stage-2 batch reads re-issued under the retry
	// policy; RingFallbacks counts member unions served by the fresh-ring
	// fallback after the shared ring reported closed.
	ReadRetries   int
	RingFallbacks int
	// MemberRoots holds each member's combined Merkle root
	// (Metadata.CombinedRoot), in Members order, for the verdict ledger.
	MemberRoots []murmur3.Digest
}

// Reproducible reports whether every compared pair cleanly matched within
// ε. A degraded pair (unread or unverifiable chunks) is never a clean
// match, so a degraded group is never reproducible.
func (g *GroupReport) Reproducible() bool {
	for i := range g.Pairs {
		if !g.Pairs[i].Result.Identical() {
			return false
		}
	}
	return true
}

// Degraded reports whether any pair completed on a degraded path.
func (g *GroupReport) Degraded() bool {
	for i := range g.Pairs {
		if g.Pairs[i].Result.Degraded {
			return true
		}
	}
	return false
}

// UnverifiedChunks totals the unverified candidate chunks across pairs.
func (g *GroupReport) UnverifiedChunks() int {
	total := 0
	for i := range g.Pairs {
		total += g.Pairs[i].Result.UnverifiedChunks
	}
	return total
}

// unionField is one field of a member's stage-2 read plan: the chunks the
// member must be read at — the union of the candidate lists of every pair
// the member is in, ascending — and where each lands in the union buffer.
// Positions resolve by rank, never by lookup: every chunk but a field's
// last is full-size, so chunk chunks[k] sits at base + k·stride; in
// differential mode, where chunks land wherever their pack extent does,
// pos lists the offsets explicitly.
type unionField struct {
	chunks       []int
	base, stride int64
	pos          []int64
	// leaves caches the integrity rung's verdict per chunk under
	// Options.Degrade, so a chunk shared by several pairs is checked (and
	// at most re-read) once and every pair sees the recovered bytes.
	leaves []leafState
}

// leafState is one cached integrity verdict: 0 unchecked, leafGood with
// the bytes to compare, or leafBad.
type leafState struct {
	state int8
	data  []byte
}

const (
	leafGood = 1
	leafBad  = 2
)

// at returns the union-buffer offset of the field's k-th chunk.
func (uf *unionField) at(k int) int64 {
	if uf.pos != nil {
		return uf.pos[k]
	}
	return uf.base + int64(k)*uf.stride
}

// unionRead is one physical stage-2 read of a group: one batched read of
// one file into one arena buffer. A container member has its own — the
// union of candidate chunks over every pair it is in, read once; the
// members of a differential group all view the single read of the shared
// pack (groupdiff.go). The plan (bytes, locs) is made by the merge step;
// the buffer and the request batch exist only while the verify step holds
// the arena set.
type unionRead struct {
	file  *pfs.File
	bytes int64
	locs  []cas.Loc // the distinct pack extents, by offset (differential)
	set   *aio.BufSet
	buf   []byte
	reqs  []aio.ReadReq
	// loaded or failed once the read ladder is through with it.
	loaded, failed bool
}

func (rd *unionRead) batch() aio.Batch { return aio.Batch{File: rd.file, Reqs: rd.reqs} }

// memberUnion is one member's view of its stage-2 bytes: which chunks it
// needs, per field, and the read whose buffer they land in.
type memberUnion struct {
	fields []unionField
	read   *unionRead
}

// groupJob is one candidate chunk of the pair being verified, resolved to
// its rank in each member's union field.
type groupJob struct {
	field, chunk int
	ra, rb       int
	n            int   // chunk bytes
	base         int64 // element index of the chunk's first element
}

// groupState carries one group comparison through stage 2.
type groupState struct {
	ms   *MemberSet
	opts Options

	unions []memberUnion
	reads  []unionRead

	// Stage-2 kernel state, reused across the pairs of the group: the
	// per-field hashers, the pair's chunk jobs, their verdicts, and the
	// range cut points and per-range errors of the current dispatch.
	hashers   []*errbound.Hasher
	jobs      []groupJob
	kernel    verdicts
	bounds    []int
	rangeErrs []error
}

// GroupCompare compares N runs' checkpoints as one group: each member's
// metadata is loaded once, the tree diffs of every pair (by topology) run
// from those in-memory trees, the candidate-chunk sets of pairs sharing a
// member are merged, and each member's union is fetched with ONE
// deduplicated batched read — so an N-run comparison issues strictly fewer
// PFS read operations and bytes than N-1 (star) or N·(N-1)/2 (all-pairs)
// sequential pairwise comparisons, which re-read shared members per pair.
// Member 0 of the group is the baseline; topology selects star (baseline
// vs each run) or all-pairs coverage. Every member must have Merkle
// metadata at the options' ε and chunk size.
func GroupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	return groupCompare(ctx, store, nil, baseline, runs, topology, opts)
}

// groupCompare is the group planner, container-backed (cs nil) or
// differential: stage 1 from the member set, then merge → shared
// read+verify → report over the union buffers.
func groupCompare(ctx context.Context, store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology Topology, opts Options) (*GroupReport, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	st := &groupState{opts: opts}
	method, open, mergeLabel, merge := "merkle-group", "open-members", "merge-unions", st.stepMergeUnions
	if cs != nil {
		method, open, mergeLabel, merge = "merkle-cas-group", "open-manifests", "merge-pack-union", st.stepMergePackUnion
	}
	st.ms, err = NewGroupSet(store, cs, baseline, runs, topology, opts, method)
	if err != nil {
		return nil, err
	}
	var p engine.Plan
	stage1 := st.ms.Stage1(&p, open)
	merged := p.Add(engine.StepCoalesce, mergeLabel, merge, stage1)
	verify := p.Add(engine.StepStreamVerify, "shared-read-verify", st.stepSharedVerify, merged)
	p.Add(engine.StepReport, "report", st.ms.Report, verify)
	if err := st.ms.Execute(ctx, &p); err != nil {
		return nil, err
	}
	return st.ms.Rep, nil
}

// stepMergeUnions merges the candidate-chunk lists of every pair sharing a
// member into one deduplicated, offset-sorted read plan per member — the
// second saving: a chunk two pairs both need from the same member is read
// once, not twice.
func (st *groupState) stepMergeUnions(ctx context.Context, x *engine.Exec) error {
	st.planUnionFields()
	st.reads = make([]unionRead, len(st.unions))
	for m := range st.unions {
		u, rd := &st.unions[m], &st.reads[m]
		u.read, rd.file = rd, st.ms.file(m)
		for fi := range u.fields {
			uf := &u.fields[fi]
			tree := st.ms.Metas[m].Fields[fi].Tree
			uf.base, uf.stride = rd.bytes, int64(tree.ChunkSize())
			for _, ci := range uf.chunks {
				_, n := tree.ChunkRange(ci)
				rd.bytes += int64(n)
			}
		}
	}
	return nil
}

// planUnionFields k-way merges, per member and field, the candidate lists
// of the pairs the member is in. merkle.Diff returns them ascending (and
// CAS pruning keeps the order), so the union is one merge pass.
func (st *groupState) planUnionFields() {
	ms := st.ms
	nFields := len(ms.fields)
	st.unions = make([]memberUnion, len(ms.names))
	lists := make([][]int, 0, len(ms.Pairs))
	for m := range st.unions {
		u := &st.unions[m]
		u.fields = make([]unionField, nFields)
		for fi := range u.fields {
			lists = lists[:0]
			for pi, pr := range ms.Pairs {
				if (pr[0] == m || pr[1] == m) && len(ms.Cands[pi][fi]) > 0 {
					lists = append(lists, ms.Cands[pi][fi])
				}
			}
			if len(lists) == 0 {
				continue
			}
			uf := &u.fields[fi]
			if uf.chunks = lists[0]; len(lists) > 1 {
				uf.chunks = mergeSorted(nil, lists)
			}
			if st.opts.Degrade {
				uf.leaves = make([]leafState, len(uf.chunks))
			}
		}
	}
}

// checkout backs every read plan with a buffer set from the stage-2 arena
// and builds its request batch into adjacent buffer windows, so runs of
// adjacent candidates coalesce and land directly: a member's requests go
// out in (field, chunk) order, the pack's in extent order. Pair with
// release.
func (st *groupState) checkout() {
	arena := st.opts.arena()
	for i := range st.reads {
		rd := &st.reads[i]
		if rd.bytes == 0 {
			continue
		}
		rd.set = arena.Get(int(rd.bytes), 0)
		rd.buf = rd.set.A[:rd.bytes]
		reqs := rd.set.ReqsA[:0]
		var pos int64
		add := func(off int64, n int) {
			reqs = append(reqs, aio.ReadReq{Off: off, Len: n, Buf: rd.buf[pos : pos+int64(n)], Tag: len(reqs)})
			pos += int64(n)
		}
		if st.ms.cs != nil {
			for _, loc := range rd.locs {
				add(loc.Off, int(loc.Len))
			}
		} else {
			// A container read is member i's own.
			for fi, uf := range st.unions[i].fields {
				tree := st.ms.Metas[i].Fields[fi].Tree
				base := st.ms.Readers[i].FieldFileOffset(fi)
				for _, ci := range uf.chunks {
					off, n := tree.ChunkRange(ci)
					add(base+off, n)
				}
			}
		}
		rd.set.ReqsA, rd.reqs = reqs, reqs
	}
}

// release hands every read's buffer set back to the arena.
func (st *groupState) release() {
	arena := st.opts.arena()
	for i := range st.reads {
		rd := &st.reads[i]
		arena.Put(rd.set)
		rd.set, rd.buf, rd.reqs = nil, nil, nil
	}
}

// fieldHashers builds the ε-hasher of every selected field, one per
// dtype.
func (st *groupState) fieldHashers() error {
	byType := make(map[errbound.DType]*errbound.Hasher)
	st.hashers = make([]*errbound.Hasher, len(st.ms.fields))
	for fi, f := range st.ms.fields {
		if !st.ms.selected[fi] {
			continue
		}
		if byType[f.DType] == nil {
			h, err := st.opts.hasherFor(f.DType)
			if err != nil {
				return err
			}
			byType[f.DType] = h
		}
		st.hashers[fi] = byType[f.DType]
	}
	return nil
}

// stepSharedVerify runs the shared stage 2: each union is fetched with one
// batched read (consecutive unions paired through the backend's overlapped
// pair path), and each pair is verified element-wise from the cached union
// buffers as soon as both of its members have landed. A differential group
// has the one pack union, so that is one read and then every pair.
//
// Reads climb the degradation ladder: a paired read is retried as a pair
// (aio.ReadRetried) and, failing that, each union climbs aio.ReadLadder
// solo — one bad member must not take down both — and, with
// Options.Degrade set, a union that still cannot be read drops every pair
// it touches to a metadata-only verdict for its SURVIVING candidates
// instead of failing the plan; CAS-pruned chunks keep their proven verdict
// and are never counted Unverified.
func (st *groupState) stepSharedVerify(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	ms, rep := st.ms, st.ms.Rep
	pairRd, _ := st.opts.Backend.(aio.PairReader)
	if err := st.fieldHashers(); err != nil {
		return err
	}
	st.checkout()
	defer st.release()

	var toRead []*unionRead
	for i := range st.reads {
		if len(st.reads[i].reqs) > 0 {
			toRead = append(toRead, &st.reads[i])
		}
	}
	compared := make([]bool, len(ms.Pairs))
	vp := stream.NewVirtualPipeline(st.opts.Depth)

	// compareReady verifies every not-yet-compared pair whose members are
	// both loaded, returning the compute virtual time of the batch.
	compareReady := func() (time.Duration, error) {
		var comp time.Duration
		for pi, pr := range ms.Pairs {
			if compared[pi] || !st.pairHasCands(pi) ||
				!st.unions[pr[0]].read.loaded || !st.unions[pr[1]].read.loaded {
				continue
			}
			compared[pi] = true
			c, err := st.verifyPair(ctx, pi)
			if err != nil {
				return comp, err
			}
			comp += c
		}
		return comp, nil
	}

	for bi := 0; bi < len(toRead); bi += 2 {
		if err := ctx.Err(); err != nil {
			return err
		}
		var io time.Duration
		duo := toRead[bi:min(bi+2, len(toRead))]
		if len(duo) == 2 && pairRd != nil {
			rd, err := aio.ReadRetried(ctx, pairRd, st.opts.Retry, duo[0].batch(), duo[1].batch())
			rep.ReadRetries += rd.Retries
			io += rd.IO
			if err == nil {
				duo[0].loaded, duo[1].loaded = true, true
				rep.BytesRead += int64(len(duo[0].buf)) + int64(len(duo[1].buf))
			}
		}
		for _, u := range duo {
			if u.loaded {
				continue
			}
			rd, err := aio.ReadLadder(ctx, st.opts.Backend, st.opts.Retry, u.batch())
			rep.ReadRetries += rd.Retries
			io += rd.IO
			if rd.FellBack {
				rep.RingFallbacks++
			}
			switch {
			case err == nil:
				u.loaded = true
				rep.BytesRead += int64(len(u.buf))
			case st.opts.Degrade && ctx.Err() == nil:
				u.failed = true
			default:
				return fmt.Errorf("compare: group verification: %w", err)
			}
		}
		comp, err := compareReady()
		if err != nil {
			return err
		}
		vp.Advance(io, comp)
	}
	// Pairs touching a union that never landed degrade to the metadata-only
	// verdict: stage 1 proved which chunks could diverge; none of the
	// survivors were verified.
	for pi, pr := range ms.Pairs {
		if !compared[pi] && (st.unions[pr[0]].read.failed || st.unions[pr[1]].read.failed) {
			for _, chunks := range ms.Cands[pi] {
				ms.Fold(pi).Unverified += len(chunks)
			}
		}
	}
	x.AddVirtual(st.kernel.chargeRereads(ms.store, ms.sink))
	rep.PipelineVirtual = vp.Total()
	rep.Breakdown.AddVirtual(metrics.PhaseCompareDirect, vp.Total())
	rep.Breakdown.AddWall(metrics.PhaseCompareDirect, sw.Lap())
	x.AddVirtual(vp.Total())
	return nil
}

// pairHasCands reports whether pair pi has any candidate chunks.
func (st *groupState) pairHasCands(pi int) bool {
	for _, chunks := range st.ms.Cands[pi] {
		if len(chunks) > 0 {
			return true
		}
	}
	return false
}

// verifyPair verifies one pair's candidate chunks from the two members'
// cached union buffers — the same kernel the pair planners run, dispatched
// over the options' executor in byte-balanced ranges — lands the verdicts
// in the pair's fold in chunk order (the same at any worker count), and
// returns the priced compute time of the batch.
func (st *groupState) verifyPair(ctx context.Context, pi int) (time.Duration, error) {
	ms := st.ms
	a, b := ms.Pairs[pi][0], ms.Pairs[pi][1]
	ua, ub := &st.unions[a], &st.unions[b]

	// Resolve every candidate to its rank in both unions: the candidate
	// list is a sublist of each, so one cursor per side walks forward.
	st.jobs = st.jobs[:0]
	var pairBytes int64
	for fi, chunks := range ms.Cands[pi] {
		if len(chunks) == 0 {
			continue
		}
		fm := ms.Metas[a].Fields[fi]
		tree := fm.Tree
		chunkElems := int64(tree.ChunkSize() / fm.DType.Size())
		ca, cb := ua.fields[fi].chunks, ub.fields[fi].chunks
		ra, rb := 0, 0
		for _, ci := range chunks {
			for ca[ra] != ci {
				ra++
			}
			for cb[rb] != ci {
				rb++
			}
			_, n := tree.ChunkRange(ci)
			st.jobs = append(st.jobs, groupJob{field: fi, chunk: ci, ra: ra, rb: rb, n: n, base: int64(ci) * chunkElems})
			pairBytes += int64(n)
		}
	}

	exec := device.Cancelable{Done: ctx.Done(), Inner: st.opts.Exec}
	maxRanges := stream.MaxRanges(exec)
	st.kernel.reset(len(st.jobs), maxRanges)
	st.bounds = stream.Ranges(st.bounds, len(st.jobs), func(i int) int { return st.jobs[i].n }, maxRanges)
	nr := len(st.bounds) - 1
	st.rangeErrs = slices.Grow(st.rangeErrs[:0], nr)[:nr]
	clear(st.rangeErrs)
	var leaves LeafChecker
	if st.opts.Degrade {
		leaves = &groupLeaves{st: st, a: a, b: b}
	}
	verifyRange := func(r int) {
		for i := st.bounds[r]; i < st.bounds[r+1]; i++ {
			j := &st.jobs[i]
			pa, pb := ua.fields[j.field].at(j.ra), ub.fields[j.field].at(j.rb)
			job := ChunkJob{
				Hasher: st.hashers[j.field],
				A:      ua.read.buf[pa : pa+int64(j.n)],
				B:      ub.read.buf[pb : pb+int64(j.n)],
				Base:   j.base,
				Leaves: leaves, R: r, I: i,
			}
			if ms.cs != nil && st.opts.Memo != nil {
				job.Memo = st.opts.Memo
				job.DigestA = ms.mans[a].Fields[j.field].Digests[j.chunk]
				job.DigestB = ms.mans[b].Fields[j.field].Digests[j.chunk]
			}
			if err := st.kernel.verify(r, i, &job); err != nil {
				st.rangeErrs[r] = err
				return
			}
		}
	}
	device.ForCoarse(exec, nr, verifyRange)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	// Ranges are contiguous and stop at their first failure: the first
	// failed range holds the error of the lowest chunk.
	for _, err := range st.rangeErrs {
		if err != nil {
			return 0, err
		}
	}

	fold := ms.Fold(pi)
	for i := range st.jobs {
		switch st.kernel.slots[i].verdict {
		case ChunkUnverified:
			fold.Unverified++
		case ChunkChanged:
			fold.Changed++
			fold.Add(st.jobs[i].field, st.kernel.indices(i))
		}
	}
	comp := st.opts.Device.KernelLaunch +
		st.opts.Device.TransferTime(2*pairBytes) + st.opts.Device.CompareRateTime(pairBytes)
	return comp, nil
}

// groupLeaves is the integrity rung for the pair (a, b) being verified.
type groupLeaves struct {
	st   *groupState
	a, b int
}

// CheckedSide implements LeafChecker: one member's cached union bytes
// against that member's leaf hash, re-read once on mismatch from the
// chunk's home — the member's container file, or its extent in the shared
// pack in differential mode. Verdicts (and recovered bytes) are cached per
// member chunk, so shared chunks are checked once; a pair lists each chunk
// once, so no two ranges ever touch the same entry.
func (l *groupLeaves) CheckedSide(r, i, side int, data []byte) []byte {
	st, j := l.st, &l.st.jobs[i]
	m, k := l.a, j.ra
	if side == SideB {
		m, k = l.b, j.rb
	}
	leaf := &st.unions[m].fields[j.field].leaves[k]
	if leaf.state == 0 {
		want := st.ms.Metas[m].Fields[j.field].Tree.Leaf(j.chunk)
		verified, _, cost := VerifyLeaf(st.hashers[j.field], data, want, st.ms.file(m), st.ms.chunkOff(m, j.field, j.chunk))
		st.kernel.ranges[r].rereadCost.Add(cost)
		leaf.state, leaf.data = leafBad, verified
		if verified != nil {
			leaf.state = leafGood
		}
	}
	return leaf.data
}
