package compare

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/simclock"
	"repro/internal/stream"
)

// This file is stage 1 of the paper's one comparison algorithm, once: open
// the members, load each member's metadata, diff the trees of every pair.
// Every Merkle planner is a caller — a pair comparison is the member set
// [A, B] with the single pair (0, 1), a group is N members with its
// topology's pair list, a sharded comparison (internal/shard) is either
// with its stage 2 scheduled a work unit at a time (Stage2, plan.go), and
// the differential (CAS) planners are the same set opened from manifests
// plus one pruning pass. The set also turns what survives into the stage-2
// read plan (planCandidates) every planner streams (plan.go).

// deserializeBytesPerSec prices metadata parsing (a memory-bandwidth-bound
// scan) on the virtual clock.
const deserializeBytesPerSec = 5e9

// MemberSet carries N checkpoints and the pairs compared among them
// through stage 1, and collects every pair's stage-2 outcome for the
// report. Steps communicate exclusively through it; the context arrives
// per step through the engine (never stored).
type MemberSet struct {
	store *pfs.Store
	opts  Options
	// acct is the account the set charges its cost to: its pair's Result's,
	// or its group's.
	acct *Account
	// Rep is the group report whose account acct is, nil for a pair plan.
	Rep *GroupReport
	// cs makes the set differential: members are leaf manifests over the
	// store's shared pack instead of container files.
	cs *cas.Store
	// dataless marks a metadata-only plan: nothing is opened.
	dataless bool

	// names lists the members; Pairs indexes the compared pairs into it.
	names []string
	Pairs [][2]int

	// Readers holds the members' open containers; in differential mode
	// the leaf manifests and the one shared pack stand in for them.
	Readers []*ckpt.Reader
	mans    []*cas.Manifest
	pack    *pfs.File
	// Metas holds each member's metadata, loaded once. Its trees are decoded
	// in place over views of the members' .mrkl files, which the plan's
	// cleanup chain closes (or, where a file cannot be viewed, over a copy):
	// no *Metadata or *merkle.Tree a member set loaded may be used after
	// Execute returns. What outlives the plan — roots, leaf digests,
	// indices — is copied out by value before then
	// (TestResultsOutliveRecycledBuffers). Every read of the trees runs
	// under mv's fault contract.
	Metas []*Metadata
	mv    *metaViews
	// Cands[p][f] holds pair p's candidate chunks in field f, ascending:
	// what the tree diff could not prune and the CAS could not prove.
	Cands [][][]int

	fields   []ckpt.FieldSpec // member 0's schema (every member's, once gated)
	selected []bool           // by field index: Options.Fields resolved
	results  []*Result        // by pair
	folds    []PairFold       // by pair

	startOps, startBytes int64
}

// newPairSet returns the member set of a pair plan: members [A, B], the
// single pair (0, 1), charging res.
func newPairSet(store *pfs.Store, cs *cas.Store, nameA, nameB string, opts Options, res *Result) *MemberSet {
	return &MemberSet{
		store: store, opts: opts, cs: cs,
		acct:    &res.Account,
		names:   []string{nameA, nameB},
		Pairs:   [][2]int{{0, 1}},
		results: []*Result{res},
	}
}

// NewGroupSet returns the member set of a group plan — the baseline
// (member 0) and the runs, paired by topology — charging a fresh
// GroupReport (Rep) whose pair results carry the given method. opts must
// be normalized; cs is nil unless the members were differentially
// captured.
func NewGroupSet(store *pfs.Store, cs *cas.Store, baseline string, runs []string, topology Topology, opts Options, method string) (*MemberSet, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("compare: group needs at least one run besides the baseline")
	}
	members := append([]string{baseline}, runs...)
	pairs, err := topology.pairList(len(members))
	if err != nil {
		return nil, err
	}
	rep := &GroupReport{Members: members, Topology: topology, Pairs: make([]GroupPairReport, len(pairs))}
	ms := &MemberSet{
		store: store, opts: opts, cs: cs, Rep: rep, acct: &rep.Account,
		names:   members,
		Pairs:   pairs,
		results: make([]*Result, len(pairs)),
	}
	for pi, pr := range pairs {
		ms.results[pi] = &Result{Method: method}
		rep.Pairs[pi] = GroupPairReport{
			A: pr[0], B: pr[1], NameA: members[pr[0]], NameB: members[pr[1]], Result: ms.results[pi],
		}
	}
	return ms, nil
}

// Stage1 appends stage 1 to a plan: open (under the planner's label),
// load-metadata, tree-diff, and for a differential set cas-prune.
func (ms *MemberSet) Stage1(p *engine.Plan, openLabel string) {
	ms.mv = &metaViews{files: make([]*pfs.File, len(ms.names))}
	p.Add(engine.StepSetup, openLabel, ms.open)
	p.Add(engine.StepLoadMetadata, "load-metadata", ms.mv.guarded(ms.load))
	p.Add(engine.StepTreeDiff, "tree-diff", ms.mv.guarded(ms.diff))
	if ms.cs != nil {
		p.Add(engine.StepTreeDiff, "cas-prune", ms.prune)
	}
}

// Execute runs the plan under the options' retry policy and gives what
// the set charges the plan's per-step timing table and its Fig. 6
// breakdown. Step errors come back as the step returned them.
func (ms *MemberSet) Execute(ctx context.Context, p *engine.Plan) error {
	p.Retry = ms.opts.Retry
	rep, err := engine.Execute(ctx, p)
	ms.acct.Steps, ms.acct.Breakdown = rep.Steps, rep.Breakdown
	return err
}

// Selected reports whether field fi takes part in the comparison.
func (ms *MemberSet) Selected(fi int) bool { return ms.selected[fi] }

// Fold returns pair pi's stage-2 accumulator.
func (ms *MemberSet) Fold(pi int) *PairFold { return &ms.folds[pi] }

// chunkOff returns the absolute offset, in member m's stage-2 source, of chunk ci of member
// m's field fi: field-relative in the member's container, or the chunk's
// pack extent in differential mode.
func (ms *MemberSet) chunkOff(m, fi, ci int) int64 {
	if ms.cs != nil {
		return ms.mans[m].Fields[fi].Locs[ci].Off
	}
	off, _ := ms.Metas[m].Fields[fi].Tree.ChunkRange(ci)
	return ms.Readers[m].FieldFileOffset(fi) + off
}

// open opens every member once on the cleanup chain — its container, or
// its leaf manifest plus the one shared pack — validates schema parity
// against member 0, resolves the field filter, and charges the fixed setup
// cost. A metadata-only set opens nothing and charges setup alone.
func (ms *MemberSet) open(ctx context.Context, x *engine.Exec) error {
	ms.startOps, ms.startBytes = ms.store.ReadStats()
	var manCost pfs.Cost
	var fields []ckpt.FieldSpec
	switch {
	case ms.dataless:
	case ms.cs != nil:
		if err := checkMemo(ms.opts.Memo, ms.opts.Epsilon); err != nil {
			return err
		}
		ms.mans = make([]*cas.Manifest, len(ms.names))
		for i, name := range ms.names {
			m, cost, err := cas.LoadManifest(ctx, ms.store, name)
			if err != nil {
				return err
			}
			manCost.Add(cost)
			ms.mans[i] = m
			if !cas.SameSchema(ms.mans[0], m) {
				return fmt.Errorf("compare: manifests of %s and %s have different schemas", ms.names[0], name)
			}
		}
		// Manifest digests are only comparable at the exact ε they were
		// captured with.
		if ms.mans[0].Epsilon != ms.opts.Epsilon {
			return fmt.Errorf("compare: manifest ε %g does not match requested ε %g", ms.mans[0].Epsilon, ms.opts.Epsilon)
		}
		pack, err := ms.cs.Pack()
		if err != nil {
			return err
		}
		x.CloseOnExit(pack)
		ms.pack = pack
		ms.acct.CheckpointBytes = ms.mans[0].TotalBytes()
		for _, f := range ms.mans[0].Fields {
			fields = append(fields, ckpt.FieldSpec{Name: f.Name, DType: f.DType, Count: f.Count})
		}
	default:
		ms.Readers = make([]*ckpt.Reader, len(ms.names))
		for i, name := range ms.names {
			r, _, err := ckpt.OpenReader(ms.store, name)
			if err != nil {
				return err
			}
			x.CloseOnExit(r)
			ms.Readers[i] = r
			if !ckpt.SameSchema(ms.Readers[0].Meta(), r.Meta()) {
				return fmt.Errorf("compare: %s and %s have different schemas", ms.names[0], name)
			}
		}
		ms.acct.CheckpointBytes = ms.Readers[0].Meta().TotalBytes()
		fields = ms.Readers[0].Meta().Fields
	}
	if !ms.dataless {
		if err := ms.bindFields(fields); err != nil {
			return err
		}
	}
	ms.acct.BytesRead += manCost.TotalBytes()
	x.Charge(metrics.PhaseSetup, ms.opts.SetupVirtual)
	x.Charge(metrics.PhaseRead, ms.store.Model().SerialReadTime(manCost, ms.store.Sharers()))
	x.Charge(metrics.PhaseDeserialize, simclock.BandwidthTime(manCost.TotalBytes(), deserializeBytesPerSec))
	return nil
}

// bindFields fixes the set's schema, resolves Options.Fields against it
// (unknown names are an error), and sizes the per-pair folds.
func (ms *MemberSet) bindFields(fields []ckpt.FieldSpec) error {
	ms.fields = fields
	ms.selected = make([]bool, len(fields))
	ms.folds = newFolds(len(ms.Pairs), len(fields))
	if len(ms.opts.Fields) == 0 || ms.dataless {
		// A metadata-only plan compares every field.
		for fi := range ms.selected {
			ms.selected[fi] = true
		}
		return nil
	}
	for _, want := range ms.opts.Fields {
		fi := 0
		for fi < len(ms.fields) && ms.fields[fi].Name != want {
			fi++
		}
		if fi == len(ms.fields) {
			have := make([]string, len(ms.fields))
			for i, f := range ms.fields {
				have[i] = f.Name
			}
			return fmt.Errorf("compare: field %q not in checkpoint (have %v)", want, have)
		}
		ms.selected[fi] = true
	}
	return nil
}

// load loads each member's metadata exactly once — a group's first saving
// over sequential pairwise comparison, which loads a shared member once
// per pair — binds it to what it describes (checkMember), prices the reads
// and the deserialization, and fills in the per-pair totals. Each member's
// .mrkl, open on the cleanup chain, lands as a view (pfs.File.LandWhole)
// that its trees are decoded over, then one size check catches a cut that
// left zeros; a pending flip or a GOOS without mmap lands a copy instead.
func (ms *MemberSet) load(ctx context.Context, x *engine.Exec) error {
	ms.Metas = make([]*Metadata, len(ms.names))
	roots := make([]murmur3.Digest, len(ms.names))
	var metaCost pfs.Cost
	for i, name := range ms.names {
		f, err := ms.store.Open(MetadataName(name))
		if err != nil {
			return err
		}
		x.CloseOnExit(f)
		data, cost, err := f.LandWhole(ctx, metadataBlock)
		if err != nil {
			return err
		}
		metaCost.Add(cost)
		ms.mv.files[i] = f
		m, err := DecodeMetadata(data)
		if err := cmp.Or(f.Holds(0, len(data)), err); err != nil {
			return err
		}
		ms.Metas[i] = m
		if ms.dataless && i == 0 {
			// Nothing was opened: the schema and the data size come from
			// member 0's trees.
			fields := make([]ckpt.FieldSpec, len(m.Fields))
			var dataBytes int64
			for fi, fm := range m.Fields {
				fields[fi] = ckpt.FieldSpec{Name: fm.Name, DType: fm.DType, Count: fm.Tree.DataLen() / int64(fm.DType.Size())}
				dataBytes += fm.Tree.DataLen()
			}
			ms.acct.CheckpointBytes = dataBytes
			if err := ms.bindFields(fields); err != nil {
				return err
			}
		}
		if err := ms.checkMember(i); err != nil {
			return err
		}
		roots[i] = m.CombinedRoot()
	}
	if ms.Rep != nil {
		ms.Rep.MemberRoots = roots
	} else {
		ms.results[0].RootA, ms.results[0].RootB = roots[0], roots[1]
	}
	ms.acct.MetadataBytes = ms.Metas[0].Bytes()
	ms.acct.BytesRead += metaCost.TotalBytes()
	x.Charge(metrics.PhaseRead, ms.store.Model().SerialReadTime(metaCost, ms.store.Sharers()))
	x.Charge(metrics.PhaseDeserialize, simclock.BandwidthTime(metaCost.TotalBytes(), deserializeBytesPerSec))

	var totalElements int64
	for fi, f := range ms.fields {
		if ms.selected[fi] {
			totalElements += f.Count
		}
	}
	for _, res := range ms.results {
		res.CheckpointBytes, res.MetadataBytes = ms.acct.CheckpointBytes, ms.acct.MetadataBytes
		res.TotalElements = totalElements
	}
	return nil
}

// metaViews are the members' open .mrkl files, whose trees are decoded
// over views that a file cut in place faults on past its end, or reads as
// zeros to the end of its last page (a Create leaves a snapshot).
type metaViews struct {
	files   []*pfs.File  // by member, each once load opened it
	faulted atomic.Int32 // 1 + the member a guard recovered a fault in, 0 for none
}

// guard runs fn, which reads the trees, under pfs.Guard, and records a
// recovered fault for run to report.
func (mv *metaViews) guard(fn func()) {
	if i := pfs.Guard(fn, mv.files...); i >= 0 {
		mv.faulted.Store(int32(i) + 1)
	}
}

// run runs fn under guard: after a recovered fault, its error is that of
// the first member whose file now ends before its view does.
func (mv *metaViews) run(fn func() error) (err error) {
	mv.guard(func() { err = fn() })
	faulted := mv.faulted.Load()
	if faulted == 0 {
		return err
	}
	for _, f := range mv.files {
		if f == nil {
			continue
		}
		if err := f.Holds(0, int(f.Size())); err != nil {
			return err
		}
	}
	return fmt.Errorf("compare: %s: a metadata view faulted: %w", mv.files[faulted-1].Name(), io.ErrUnexpectedEOF)
}

// guarded is step, run under the fault contract.
func (mv *metaViews) guarded(step engine.StepFunc) engine.StepFunc {
	return func(ctx context.Context, x *engine.Exec) error { return mv.run(func() error { return step(ctx, x) }) }
}

// guardedExec runs the tree diff's loops, on the pool's workers, under the
// fault contract: a guard's defer and recover cost more than the one node
// comparison of an iteration, so a guard covers a span of guardSpan.
type guardedExec struct {
	device.Executor
	mv *metaViews
}

const guardSpan = 16

func (e guardedExec) For(n int, fn func(i int)) {
	e.Executor.For((n+guardSpan-1)/guardSpan, func(s int) {
		e.mv.guard(func() {
			for i := s * guardSpan; i < min(n, (s+1)*guardSpan); i++ {
				fn(i)
			}
		})
	})
}

// ErrMetadataMismatch marks a metadata file that does not describe what it
// is being used against: the member's container or manifest, or the other
// members' metadata.
var ErrMetadataMismatch = errors.New("metadata does not match")

// checkMember is the one gate between a metadata file and the comparison:
// member i's metadata must have been built at the requested ε and must
// describe, field for field (name, element type, byte length), the
// container or manifest it is about to index — a checkpoint rewritten with
// re-ordered, re-typed or re-sized fields under old metadata is rejected
// here rather than read at the wrong offsets. Schema parity was gated at
// open, so every member's metadata then agrees with every other's and
// trees of different fields are never diffed against each other. A
// metadata-only set has nothing to bind to: its schema is member 0's
// metadata, which leaves the member-vs-member half.
func (ms *MemberSet) checkMember(i int) error {
	m, name := ms.Metas[i], ms.names[i]
	// Metadata is only valid for the exact ε it was built with: bitwise
	// equality is the contract.
	if m.Epsilon != ms.opts.Epsilon {
		return fmt.Errorf("compare: %s: metadata ε %g does not match requested ε %g", name, m.Epsilon, ms.opts.Epsilon)
	}
	holder := "the checkpoint"
	if ms.dataless {
		holder = ms.names[0]
	}
	if len(m.Fields) != len(ms.fields) {
		return fmt.Errorf("compare: %s: %w: it describes %d fields, %s has %d",
			name, ErrMetadataMismatch, len(m.Fields), holder, len(ms.fields))
	}
	for fi := range m.Fields {
		f, want := &m.Fields[fi], ms.fields[fi]
		if f.Name != want.Name || f.DType != want.DType || f.Tree.DataLen() != want.Bytes() {
			return fmt.Errorf("compare: %s: %w: field %d is %q (%v, %d bytes), %s has %q (%v, %d bytes)",
				name, ErrMetadataMismatch, fi, f.Name, f.DType, f.Tree.DataLen(), holder, want.Name, want.DType, want.Bytes())
		}
	}
	return nil
}

// diff runs stage 1 proper for every pair from the loaded trees — no
// additional I/O regardless of pair count: the pruned BFS tree diff per
// selected field (CompareTree phase). The executor is wrapped so a
// canceled context stops the diff kernels between poll intervals, and so
// every task reads the trees under the fault contract.
func (ms *MemberSet) diff(ctx context.Context, x *engine.Exec) error {
	exec := guardedExec{device.Cancelable{Done: ctx.Done(), Inner: ms.opts.Exec}, ms.mv}
	ms.Cands = make([][][]int, len(ms.Pairs))
	var treeVirtual time.Duration
	for pi, pr := range ms.Pairs {
		a, b := pr[0], pr[1]
		res := ms.results[pi]
		ms.Cands[pi] = make([][]int, len(ms.fields))
		for fi := range ms.fields {
			if !ms.selected[fi] {
				continue
			}
			ta, tb := ms.Metas[a].Fields[fi].Tree, ms.Metas[b].Fields[fi].Tree
			start := ms.opts.StartLevel
			if start < 0 {
				start = ta.DefaultStartLevel(exec.Workers())
			}
			chunks, nodes, err := merkle.Diff(ta, tb, start, exec)
			if err != nil {
				return fmt.Errorf("compare: %s vs %s field %q: %w", ms.names[a], ms.names[b], ms.fields[fi].Name, err)
			}
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			res.TotalChunks += ta.NumChunks()
			res.CandidateChunks += len(chunks)
			if len(chunks) > 0 {
				ms.Cands[pi][fi] = chunks
			}
			if ms.dataless {
				// The stage-1-only paths report chunk fractions, not device
				// time: they price no diff kernels.
				continue
			}
			// One kernel per visited level (bounded by depth), nodes at the
			// node-hash comparison rate.
			levels := ta.Depth() - start + 1
			treeVirtual += time.Duration(levels)*ms.opts.Device.KernelLaunch +
				simclock.BandwidthTime(nodes*16, float64(ms.opts.Device.NodeHashesPerSec)*16)
		}
	}
	x.Charge(metrics.PhaseCompareTree, treeVirtual)
	return nil
}

// prune removes, per pair, the candidate chunks whose verdict the CAS
// proves without reading: extent equality (both members deduplicated to
// the same pack extent — identical by construction, and a pure stage-1
// false positive) and memoized digest-pair verdicts, replayed into the
// pair's fold exactly as a stage-2 verification would have landed them.
// Pruned chunks cost zero stage-2 read ops and are never counted
// Unverified: their verdict is proven, not skipped.
func (ms *MemberSet) prune(ctx context.Context, x *engine.Exec) error {
	memo := ms.opts.Memo
	for pi, pr := range ms.Pairs {
		res, fold := ms.results[pi], &ms.folds[pi]
		manA, manB := ms.mans[pr[0]], ms.mans[pr[1]]
		for fi, chunks := range ms.Cands[pi] {
			if len(chunks) == 0 {
				continue
			}
			fA, fB := &manA.Fields[fi], &manB.Fields[fi]
			chunkElems := int64(manA.ChunkSize) / int64(fA.DType.Size())
			kept := chunks[:0]
			for _, ci := range chunks {
				if fA.Locs[ci] == fB.Locs[ci] {
					res.CASPrunedChunks++
					continue
				}
				if memo != nil {
					if rel, ok := memo.lookup(fA.Digests[ci], fB.Digests[ci], fA.DType); ok {
						res.CASPrunedChunks++
						fold.replay(fi, int64(ci)*chunkElems, rel)
						continue
					}
				}
				kept = append(kept, ci)
			}
			if len(kept) == 0 {
				kept = nil
			}
			ms.Cands[pi][fi] = kept
		}
	}
	return nil
}

// planCandidates turns the surviving candidates of every pair into the
// stage-2 read plan: the members' files as its sources — the one shared
// pack in differential mode, where every member views the same extents —
// and one job per candidate, ordered (field, chunk, pair) so the pairs that
// need a chunk from a shared member sit in one window and the chunk is one
// extent, read once. refs maps each job back to its pair, field and chunk.
// The jobs, refs and each source's extents are counted first and each
// list is allocated once.
func (ms *MemberSet) planCandidates() (*stream.Plan, []jobRef, error) {
	files := []*pfs.File{ms.pack}
	if ms.cs == nil {
		files = make([]*pfs.File, len(ms.names))
		for m := range files {
			files[m] = ms.Readers[m].File()
		}
	}
	plan := stream.NewPlan(files...)
	source := func(m int) int {
		if ms.cs != nil {
			return 0
		}
		return m
	}
	jobs, extents := 0, make([]int, len(files))
	for pi, pr := range ms.Pairs {
		n := 0
		for _, c := range ms.Cands[pi] {
			n += len(c)
		}
		jobs += n
		extents[source(pr[0])] += n
		extents[source(pr[1])] += n
	}
	plan.Jobs = make([]stream.Job, 0, jobs)
	for s, n := range extents {
		plan.Sources[s].Extents = make([]stream.Extent, 0, n)
	}
	refs := make([]jobRef, 0, jobs)
	heads := make([]int, len(ms.Pairs))
	for fi, fm := range ms.Metas[0].Fields {
		chunkElems := int64(fm.Tree.ChunkSize() / fm.DType.Size())
		clear(heads)
		for {
			// The candidate lists ascend (merkle.Diff returns them so, CAS
			// pruning keeps the order): the least head is the next chunk.
			ci := -1
			for pi := range ms.Pairs {
				if c := ms.Cands[pi][fi]; heads[pi] < len(c) && (ci < 0 || c[heads[pi]] < ci) {
					ci = c[heads[pi]]
				}
			}
			if ci < 0 {
				break
			}
			_, n := fm.Tree.ChunkRange(ci)
			for pi, pr := range ms.Pairs {
				if c := ms.Cands[pi][fi]; heads[pi] == len(c) || c[heads[pi]] != ci {
					continue
				}
				heads[pi]++
				if ms.cs != nil {
					// The manifest pins extent length to chunk length.
					locA, locB := ms.mans[pr[0]].Fields[fi].Locs[ci], ms.mans[pr[1]].Fields[fi].Locs[ci]
					if int(locA.Len) != n || int(locB.Len) != n {
						return nil, nil, fmt.Errorf("compare: field %q chunk %d: pack extents %d/%d bytes, tree says %d",
							fm.Name, ci, locA.Len, locB.Len, n)
					}
				}
				plan.Add(len(refs), source(pr[0]), ms.chunkOff(pr[0], fi, ci), source(pr[1]), ms.chunkOff(pr[1], fi, ci), n)
				refs = append(refs, jobRef{pair: pi, field: fi, chunk: ci, base: int64(ci) * chunkElems})
			}
		}
	}
	return plan, refs, nil
}

// Report is the planners' report step: every pair's fold lands in its
// Result, and a group's account takes the sum of its pairs' verdicts and
// chunk counts and closes its store-level I/O accounting.
func (ms *MemberSet) Report(ctx context.Context, x *engine.Exec) error {
	for pi := range ms.folds {
		ms.folds[pi].emit(ms.results[pi], ms.fields)
	}
	if ms.Rep != nil {
		for _, res := range ms.results {
			ms.Rep.addPair(&res.Account)
		}
		ops, bytes := ms.store.ReadStats()
		ms.Rep.ReadOps, ms.Rep.ReadBytes = ops-ms.startOps, bytes-ms.startBytes
	}
	return nil
}

// PairFold accumulates one pair's stage-2 outcome by field — chunks the
// kernel verified, verdicts the memo replayed, verdicts shard workers sent
// back — in whatever order they arrive, and emits it into the pair's
// Result in field order with indices ascending: the one way verified
// indices become FieldDiffs.
type PairFold struct {
	idx [][]int64 // by field: field-absolute divergent element indices
	// Changed counts chunks with a divergent element (verified or
	// replayed); Unverified counts chunks that were never cleanly verified.
	Changed, Unverified int
}

// newFolds returns empty folds for pairs pairs of fields fields.
func newFolds(pairs, fields int) []PairFold {
	folds := make([]PairFold, pairs)
	for pi := range folds {
		folds[pi].idx = make([][]int64, fields)
	}
	return folds
}

// grow makes room for n more indices in a field with one allocation of
// exactly the capacity wanted, so a list whose size is known before it is
// filled is allocated once.
func (f *PairFold) grow(field, n int) {
	if old := f.idx[field]; cap(old)-len(old) < n {
		f.idx[field] = append(make([]int64, 0, len(old)+n), old...)
	}
}

// Add lands the divergent element indices of parts (field-absolute;
// copied), in order, in a field. The list grows once, by exactly what the
// parts hold: hand over everything a (pair, field) has in one call.
func (f *PairFold) Add(field int, parts ...[]int64) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	f.grow(field, n)
	for _, p := range parts {
		f.idx[field] = append(f.idx[field], p...)
	}
}

// replay lands one memoized chunk verdict: chunk-relative indices, offset
// to the chunk's first element.
func (f *PairFold) replay(field int, base int64, rel []int64) {
	for _, e := range rel {
		f.idx[field] = append(f.idx[field], base+e)
	}
	if len(rel) > 0 {
		f.Changed++
	}
}

// emit drains the fold into the pair's result.
func (f *PairFold) emit(res *Result, fields []ckpt.FieldSpec) {
	res.ChangedChunks += f.Changed
	if f.Unverified > 0 {
		res.Degraded = true
		res.UnverifiedChunks += f.Unverified
	}
	for fi, idx := range f.idx {
		if len(idx) > 0 {
			sortIndices(idx)
			res.Diffs = append(res.Diffs, FieldDiff{Field: fields[fi].Name, Indices: idx})
			res.DiffCount += int64(len(idx))
		}
	}
}
