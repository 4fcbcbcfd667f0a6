package compare

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/aio"
	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/simclock"
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

// PairList enumerates the member-index pairs the topology covers over n
// members (member 0 is the baseline) — exported so out-of-package
// planners (internal/shard) cover exactly the same pairs in the same
// order.
func (t Topology) PairList(n int) ([][2]int, error) { return t.pairList(n) }

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

// memberUnion is one member's deduplicated stage-2 read plan: the union of
// candidate chunks over every pair the member participates in, read once.
// The plan (fields, bytes) is made by the merge step; the buffer and the
// request batch exist only while the verify step holds their arena set.
type memberUnion struct {
	fields []unionField
	bytes  int64
	set    *aio.BufSet
	buf    []byte
	reqs   []aio.ReadReq
}

// groupJob is one candidate chunk of the pair being verified, resolved to
// its rank in each member's union field.
type groupJob struct {
	field, chunk int
	ra, rb       int
	n            int   // chunk bytes
	base         int64 // element index of the chunk's first element
}

// groupState carries one group comparison through its plan steps.
type groupState struct {
	store   *pfs.Store
	members []string
	topo    Topology
	opts    Options
	rep     *GroupReport

	readers  []*ckpt.Reader
	metas    []*Metadata
	selected func(string) bool
	pairIdx  [][2]int
	// pairCands[p][f] holds pair p's candidate chunks in field f
	// (nil when the field's trees match).
	pairCands [][][]int
	unions    []memberUnion

	startOps, startBytes int64
	totalElements        int64

	// Stage-2 kernel state, reused across the pairs of the group: the
	// per-field hashers, the pair's chunk jobs, their verdicts, and the
	// range cut points and per-range errors of the current dispatch.
	hashers   []*errbound.Hasher
	jobs      []groupJob
	kernel    verdicts
	bounds    []int
	rangeErrs []error

	// Differential mode (GroupCompareDiff): members are manifests over a
	// shared CAS pack, stage 2 is one loc-deduplicated pack read, and memo
	// replays land per pair at report time.
	diffMode  bool
	cs        *cas.Store
	mans      []*cas.Manifest
	pack      *pfs.File
	packUnion memberUnion
	packLocs  []cas.Loc // the distinct extents of packUnion, by offset
	// replays[pi][fi][ci] holds a pair's memo-replayed absolute diff
	// indices (possibly empty: proven identical within ε).
	replays []map[int]map[int][]int64
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
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
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
		store:   store,
		members: members,
		topo:    topology,
		opts:    opts,
		pairIdx: pairIdx,
		rep:     &GroupReport{Members: members, Topology: topology},
	}
	var p engine.Plan
	p.Retry = opts.Retry
	open := p.Add(engine.StepSetup, "open-members", st.stepOpenMembers)
	load := p.Add(engine.StepLoadMetadata, "load-metadata", st.stepLoadMembers, open)
	diff := p.Add(engine.StepTreeDiff, "tree-diff", st.stepPairDiffs, load)
	merge := p.Add(engine.StepCoalesce, "merge-unions", st.stepMergeUnions, diff)
	verify := p.Add(engine.StepStreamVerify, "shared-read-verify", st.stepSharedVerify, merge)
	p.Add(engine.StepReport, "report", st.stepGroupReport, verify)
	erep, err := engine.Execute(ctx, &p)
	st.rep.Steps = erep.Steps
	if err != nil {
		return nil, err
	}
	return st.rep, nil
}

// stepOpenMembers opens every member once and validates schema parity.
func (st *groupState) stepOpenMembers(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	st.startOps, st.startBytes = st.store.ReadStats()
	st.readers = make([]*ckpt.Reader, len(st.members))
	for i, name := range st.members {
		r, _, err := ckpt.OpenReader(st.store, name)
		if err != nil {
			return err
		}
		x.CloseOnExit(r)
		st.readers[i] = r
		if i > 0 && !ckpt.SameSchema(st.readers[0].Meta(), r.Meta()) {
			return fmt.Errorf("compare: %s and %s have different schemas", st.members[0], name)
		}
	}
	st.rep.CheckpointBytes = st.readers[0].Meta().TotalBytes()
	st.rep.Breakdown.AddVirtual(metrics.PhaseSetup, st.opts.SetupVirtual)
	st.rep.Breakdown.AddWall(metrics.PhaseSetup, sw.Lap())
	x.AddVirtual(st.opts.SetupVirtual)
	return nil
}

// stepLoadMembers loads each member's metadata exactly once — the first
// saving versus sequential pairwise comparison, which loads a shared
// member's metadata once per pair.
func (st *groupState) stepLoadMembers(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	model := st.store.Model()
	sharers := st.store.Sharers()
	st.metas = make([]*Metadata, len(st.members))
	var metaCost pfs.Cost
	var deserWall time.Duration
	for i, name := range st.members {
		m, cost, dwall, err := LoadMetadata(ctx, st.store, name)
		if err != nil {
			return err
		}
		metaCost.Add(cost)
		deserWall += dwall
		st.metas[i] = m
		if i > 0 {
			if err := checkMetaPair(st.metas[0], m, st.opts.Epsilon); err != nil {
				return err
			}
		}
	}
	//lint:ignore epsflow ε settings are configuration, not computed values; they must match exactly
	if st.metas[0].Epsilon != st.opts.Epsilon {
		return fmt.Errorf("compare: metadata ε %g does not match requested ε %g",
			st.metas[0].Epsilon, st.opts.Epsilon)
	}
	st.rep.MemberRoots = make([]murmur3.Digest, len(st.metas))
	for i, m := range st.metas {
		st.rep.MemberRoots[i] = m.CombinedRoot()
	}
	st.rep.MetadataBytes = st.metas[0].Bytes()
	st.rep.BytesRead += metaCost.TotalBytes()
	readV := model.SerialReadTime(metaCost, sharers)
	deserV := simclock.BandwidthTime(metaCost.TotalBytes(), deserializeBytesPerSec)
	st.rep.Breakdown.AddVirtual(metrics.PhaseRead, readV)
	st.rep.Breakdown.AddWall(metrics.PhaseRead, sw.Lap())
	st.rep.Breakdown.AddVirtual(metrics.PhaseDeserialize, deserV)
	st.rep.Breakdown.AddWall(metrics.PhaseDeserialize, deserWall)
	x.AddVirtual(readV + deserV)

	fieldNames := make([]string, len(st.metas[0].Fields))
	for i := range fieldNames {
		fieldNames[i] = st.metas[0].Fields[i].Name
	}
	selected, err := st.opts.fieldFilter(fieldNames)
	if err != nil {
		return err
	}
	st.selected = selected
	for _, fm := range st.metas[0].Fields {
		if selected(fm.Name) {
			st.totalElements += fm.Tree.DataLen() / int64(fm.DType.Size())
		}
	}
	return nil
}

// stepPairDiffs runs stage 1 for every pair from the in-memory trees: no
// additional I/O regardless of pair count.
func (st *groupState) stepPairDiffs(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	exec := device.Cancelable{Done: ctx.Done(), Inner: st.opts.Exec}
	nFields := len(st.metas[0].Fields)
	st.pairCands = make([][][]int, len(st.pairIdx))
	st.rep.Pairs = make([]GroupPairReport, len(st.pairIdx))
	var treeVirtual time.Duration
	method := "merkle-group"
	if st.diffMode {
		method = "merkle-cas-group"
	}
	for pi, pr := range st.pairIdx {
		a, b := pr[0], pr[1]
		res := &Result{
			Method:          method,
			CheckpointBytes: st.rep.CheckpointBytes,
			MetadataBytes:   st.rep.MetadataBytes,
			TotalElements:   st.totalElements,
		}
		st.rep.Pairs[pi] = GroupPairReport{
			A: a, B: b, NameA: st.members[a], NameB: st.members[b], Result: res,
		}
		st.pairCands[pi] = make([][]int, nFields)
		for fi := 0; fi < nFields; fi++ {
			fm := st.metas[a].Fields[fi]
			if !st.selected(fm.Name) {
				continue
			}
			ta, tb := fm.Tree, st.metas[b].Fields[fi].Tree
			start := st.opts.StartLevel
			if start < 0 {
				start = ta.DefaultStartLevel(exec.Workers())
			}
			chunks, nodes, err := merkle.Diff(ta, tb, start, exec)
			if err != nil {
				return fmt.Errorf("compare: pair %s vs %s field %q: %w",
					st.members[a], st.members[b], fm.Name, err)
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			res.TotalChunks += ta.NumChunks()
			res.CandidateChunks += len(chunks)
			if len(chunks) > 0 {
				st.pairCands[pi][fi] = chunks
			}
			levels := ta.Depth() - start + 1
			treeVirtual += time.Duration(levels)*st.opts.Device.KernelLaunch +
				simclock.BandwidthTime(nodes*16, float64(st.opts.Device.NodeHashesPerSec)*16)
		}
	}
	st.rep.Breakdown.AddVirtual(metrics.PhaseCompareTree, treeVirtual)
	st.rep.Breakdown.AddWall(metrics.PhaseCompareTree, sw.Lap())
	x.AddVirtual(treeVirtual)
	return nil
}

// stepMergeUnions merges the candidate-chunk lists of every pair sharing a
// member into one deduplicated, offset-sorted read plan per member — the
// second saving: a chunk two pairs both need from the same member is read
// once, not twice.
func (st *groupState) stepMergeUnions(ctx context.Context, x *engine.Exec) error {
	st.planUnionFields()
	for m := range st.unions {
		u := &st.unions[m]
		for fi := range u.fields {
			uf := &u.fields[fi]
			tree := st.metas[m].Fields[fi].Tree
			uf.base, uf.stride = u.bytes, int64(tree.ChunkSize())
			for _, ci := range uf.chunks {
				_, n := tree.ChunkRange(ci)
				u.bytes += int64(n)
			}
		}
	}
	return nil
}

// planUnionFields k-way merges, per member and field, the candidate lists
// of the pairs the member is in. merkle.Diff returns them ascending (and
// CAS pruning keeps the order), so the union is one merge pass.
func (st *groupState) planUnionFields() {
	nFields := len(st.metas[0].Fields)
	st.unions = make([]memberUnion, len(st.members))
	lists := make([][]int, 0, len(st.pairIdx))
	for m := range st.unions {
		u := &st.unions[m]
		u.fields = make([]unionField, nFields)
		for fi := range u.fields {
			lists = lists[:0]
			for pi, pr := range st.pairIdx {
				if (pr[0] == m || pr[1] == m) && len(st.pairCands[pi][fi]) > 0 {
					lists = append(lists, st.pairCands[pi][fi])
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

// checkoutUnions backs every member's read plan with a buffer set from
// the stage-2 arena and builds its request batch. Requests go out in
// (field, chunk) order into adjacent buffer windows, so runs of adjacent
// candidates coalesce and land directly. Pair with returnUnions.
func (st *groupState) checkoutUnions() {
	arena := st.opts.arena()
	for m := range st.unions {
		u := &st.unions[m]
		if u.bytes == 0 {
			continue
		}
		u.set = arena.Get(int(u.bytes), 0)
		u.buf = u.set.A[:u.bytes]
		reqs := u.set.ReqsA[:0]
		for fi := range u.fields {
			uf := &u.fields[fi]
			tree := st.metas[m].Fields[fi].Tree
			base := st.readers[m].FieldFileOffset(fi)
			for k, ci := range uf.chunks {
				off, n := tree.ChunkRange(ci)
				pos := uf.at(k)
				reqs = append(reqs, aio.ReadReq{Off: base + off, Len: n, Buf: u.buf[pos : pos+int64(n)], Tag: len(reqs)})
			}
		}
		u.set.ReqsA, u.reqs = reqs, reqs
	}
}

// returnUnions hands every union's buffer set back to the arena.
func (st *groupState) returnUnions() {
	arena := st.opts.arena()
	for m := range st.unions {
		u := &st.unions[m]
		arena.Put(u.set)
		u.set, u.buf, u.reqs = nil, nil, nil
	}
	arena.Put(st.packUnion.set)
	st.packUnion.set, st.packUnion.buf, st.packUnion.reqs = nil, nil, nil
}

// fieldHashers builds the ε-hasher of every selected field, one per
// dtype.
func (st *groupState) fieldHashers() error {
	byType := make(map[errbound.DType]*errbound.Hasher)
	st.hashers = make([]*errbound.Hasher, len(st.metas[0].Fields))
	for fi, fm := range st.metas[0].Fields {
		if !st.selected(fm.Name) {
			continue
		}
		if byType[fm.DType] == nil {
			h, err := st.opts.hasherFor(fm.DType)
			if err != nil {
				return err
			}
			byType[fm.DType] = h
		}
		st.hashers[fi] = byType[fm.DType]
	}
	return nil
}

// readMember fetches one member's union solo, retrying Transient errors
// under the options' policy and falling back to a fresh ring when the
// shared ring reports closed. It returns the I/O virtual time including
// backoff.
func (st *groupState) readMember(ctx context.Context, m int) (time.Duration, error) {
	u := &st.unions[m]
	file := st.readers[m].File()
	var io time.Duration
	attempts := 0
	backoff, err := st.opts.Retry.Do(ctx, func(attempt int) error {
		attempts = attempt + 1
		var rerr error
		_, io, rerr = st.opts.Backend.ReadBatch(ctx, file, u.reqs)
		return rerr
	})
	st.rep.ReadRetries += attempts - 1
	io += backoff
	if err != nil && errors.Is(err, aio.ErrRingClosed) {
		leg := aio.Legacy{}
		var lio time.Duration
		_, lio, err = leg.ReadBatch(ctx, file, u.reqs)
		io += lio
		if err == nil {
			st.rep.RingFallbacks++
		}
	}
	return io, err
}

// stepSharedVerify runs the shared stage 2: each member's union is fetched
// with one batched read (consecutive members paired through the backend's
// overlapped pair path), and each pair is verified element-wise from the
// cached union buffers as soon as both of its members have landed.
//
// Reads climb the degradation ladder: Transient errors retry with backoff
// on the virtual clock, a failed paired read retries each member solo, a
// closed shared ring falls back to a fresh ring, and — with Options.Degrade
// set — a member whose union still cannot be read drops to a metadata-only
// verdict for every pair it touches instead of failing the plan.
func (st *groupState) stepSharedVerify(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	pairRd, _ := st.opts.Backend.(aio.PairReader)
	if err := st.fieldHashers(); err != nil {
		return err
	}
	st.checkoutUnions()
	defer st.returnUnions()

	// Members that need reading, in index order.
	var toRead []int
	for m := range st.unions {
		if len(st.unions[m].reqs) > 0 {
			toRead = append(toRead, m)
		}
	}

	loaded := make([]bool, len(st.members))
	failed := make([]bool, len(st.members))
	comparedPair := make([]bool, len(st.pairIdx))
	vp := stream.NewVirtualPipeline(st.opts.Depth)

	// compareReady verifies every not-yet-compared pair whose members are
	// both loaded, returning the compute virtual time of the batch.
	compareReady := func() (time.Duration, error) {
		var comp time.Duration
		for pi, pr := range st.pairIdx {
			if comparedPair[pi] || !st.pairHasCands(pi) {
				continue
			}
			a, b := pr[0], pr[1]
			if !loaded[a] || !loaded[b] {
				continue
			}
			comparedPair[pi] = true
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
		ma := toRead[bi]
		mb := -1
		if bi+1 < len(toRead) {
			mb = toRead[bi+1]
		}
		if mb >= 0 && pairRd != nil {
			ua, ub := &st.unions[ma], &st.unions[mb]
			attempts := 0
			backoff, err := st.opts.Retry.Do(ctx, func(attempt int) error {
				attempts = attempt + 1
				var rerr error
				_, io, rerr = pairRd.ReadBatchPair(ctx,
					st.readers[ma].File(), st.readers[mb].File(), ua.reqs, ub.reqs)
				return rerr
			})
			st.rep.ReadRetries += attempts - 1
			io += backoff
			if err == nil {
				loaded[ma], loaded[mb] = true, true
				st.rep.BytesRead += int64(len(ua.buf)) + int64(len(ub.buf))
			}
			// A failed paired read falls through to the solo rung below:
			// one bad member must not take down both.
		}
		for _, m := range []int{ma, mb} {
			if m < 0 || loaded[m] {
				continue
			}
			mio, err := st.readMember(ctx, m)
			io += mio
			switch {
			case err == nil:
				loaded[m] = true
				st.rep.BytesRead += int64(len(st.unions[m].buf))
			case st.opts.Degrade && ctx.Err() == nil:
				failed[m] = true
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
	// Pairs touching a member whose union never landed degrade to the
	// metadata-only verdict: stage 1 proved which chunks could diverge;
	// none of them were verified.
	for pi, pr := range st.pairIdx {
		if comparedPair[pi] || !st.pairHasCands(pi) {
			continue
		}
		if failed[pr[0]] || failed[pr[1]] {
			res := st.rep.Pairs[pi].Result
			res.Degraded = true
			res.UnverifiedChunks += res.CandidateChunks
		}
	}
	st.foldGroupRereads(x)
	st.rep.PipelineVirtual = vp.Total()
	st.rep.Breakdown.AddVirtual(metrics.PhaseCompareDirect, vp.Total())
	st.rep.Breakdown.AddWall(metrics.PhaseCompareDirect, sw.Lap())
	x.AddVirtual(vp.Total())
	return nil
}

// foldGroupRereads prices the integrity re-reads issued by the kernel into
// the report and the plan clock.
func (st *groupState) foldGroupRereads(x *engine.Exec) {
	cost := st.kernel.takeRereadCost()
	if cost == (pfs.Cost{}) {
		return
	}
	st.rep.BytesRead += cost.TotalBytes()
	v := st.store.Model().SerialReadTime(cost, st.store.Sharers())
	st.rep.Breakdown.AddVirtual(metrics.PhaseRead, v)
	x.AddVirtual(v)
}

// pairHasCands reports whether pair pi has any candidate chunks.
func (st *groupState) pairHasCands(pi int) bool {
	for _, chunks := range st.pairCands[pi] {
		if len(chunks) > 0 {
			return true
		}
	}
	return false
}

// verifyPair verifies one pair's candidate chunks from the two members'
// cached union buffers — the same kernel the pair planners run, dispatched
// over the options' executor in byte-balanced ranges — fills the pair's
// Result in chunk order, and returns the priced compute time of the batch.
func (st *groupState) verifyPair(ctx context.Context, pi int) (time.Duration, error) {
	a, b := st.pairIdx[pi][0], st.pairIdx[pi][1]
	res := st.rep.Pairs[pi].Result
	ua, ub := &st.unions[a], &st.unions[b]

	// Resolve every candidate to its rank in both unions: the candidate
	// list is a sublist of each, so one cursor per side walks forward.
	st.jobs = st.jobs[:0]
	for fi, chunks := range st.pairCands[pi] {
		if len(chunks) == 0 {
			continue
		}
		fm := st.metas[a].Fields[fi]
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
			fa, fb := &ua.fields[j.field], &ub.fields[j.field]
			pa, pb := fa.at(j.ra), fb.at(j.rb)
			job := ChunkJob{
				Hasher: st.hashers[j.field],
				A:      ua.buf[pa : pa+int64(j.n)],
				B:      ub.buf[pb : pb+int64(j.n)],
				Base:   j.base,
				Leaves: leaves, R: r, I: i,
			}
			if st.diffMode && st.opts.Memo != nil {
				job.Memo = st.opts.Memo
				job.DigestA = st.mans[a].Fields[j.field].Digests[j.chunk]
				job.DigestB = st.mans[b].Fields[j.field].Digests[j.chunk]
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

	// Fold the verdicts into the pair's result, field by field in chunk
	// order — the same order at any worker count.
	var pairBytes int64
	i := 0
	for fi, chunks := range st.pairCands[pi] {
		if len(chunks) == 0 {
			continue
		}
		var indices []int64
		changed := 0
		for range chunks {
			switch st.kernel.slots[i].verdict {
			case ChunkUnverified:
				res.Degraded = true
				res.UnverifiedChunks++
			case ChunkChanged:
				changed++
				indices = append(indices, st.kernel.indices(i)...)
			}
			pairBytes += int64(st.jobs[i].n)
			i++
		}
		res.ChangedChunks += changed
		if len(indices) > 0 {
			sortIndices(indices)
			res.Diffs = append(res.Diffs, FieldDiff{Field: st.metas[a].Fields[fi].Name, Indices: indices})
			res.DiffCount += int64(len(indices))
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
		tree := st.metas[m].Fields[j.field].Tree
		var file *pfs.File
		var off int64
		if st.diffMode {
			file, off = st.pack, st.mans[m].Fields[j.field].Locs[j.chunk].Off
		} else {
			chunkOff, _ := tree.ChunkRange(j.chunk)
			file, off = st.readers[m].File(), st.readers[m].FieldFileOffset(j.field)+chunkOff
		}
		verified, _, cost := VerifyLeaf(st.hashers[j.field], data, tree.Leaf(j.chunk), file, off)
		st.kernel.ranges[r].rereadCost.Add(cost)
		leaf.state, leaf.data = leafBad, verified
		if verified != nil {
			leaf.state = leafGood
		}
	}
	return leaf.data
}

// stepGroupReport finalizes store-level I/O accounting.
func (st *groupState) stepGroupReport(ctx context.Context, x *engine.Exec) error {
	ops, bytes := st.store.ReadStats()
	st.rep.ReadOps = ops - st.startOps
	st.rep.ReadBytes = bytes - st.startBytes
	return nil
}
