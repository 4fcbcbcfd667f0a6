package compare

import (
	"context"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/stream"
)

// deserializeBytesPerSec prices metadata parsing (a memory-bandwidth-bound
// scan) on the virtual clock.
const deserializeBytesPerSec = 5e9

// CompareMerkle runs the paper's two-stage comparison of one checkpoint
// pair using previously saved metadata:
//
//	stage 1: load both metadata files and diff the trees (pruned BFS),
//	         producing the candidate chunk list;
//	stage 2: stream only the candidate chunks from both checkpoint files
//	         and verify them element-wise within ε.
//
// Both checkpoints (and their metadata) live on the given store under
// their canonical names. The comparison is an engine plan
// (open → load-metadata → tree-diff → coalesce → stream-verify → report):
// cancellation is observed before every step and inside the diff kernels
// and the streaming pipeline, and the cleanup chain closes both readers on
// every exit path.
func CompareMerkle(ctx context.Context, store *pfs.Store, nameA, nameB string, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	st := newPairState(store, nameA, nameB, opts, "merkle")
	var p engine.Plan
	p.Retry = opts.Retry
	open := p.Add(engine.StepSetup, "open-checkpoints", st.stepOpenPair)
	load := p.Add(engine.StepLoadMetadata, "load-metadata", st.stepLoadMetadata, open)
	diff := p.Add(engine.StepTreeDiff, "tree-diff", st.stepTreeDiff, load)
	coal := p.Add(engine.StepCoalesce, "assemble-batches", st.stepAssemblePairs, diff)
	verify := p.Add(engine.StepStreamVerify, "stream-verify", st.stepStreamVerify, coal)
	p.Add(engine.StepReport, "report", st.stepReportMerkle, verify)
	return st.runPlan(ctx, &p)
}

// stepReportMerkle assembles the Merkle result: changed-chunk counts,
// per-field divergence lists, and element totals over selected fields.
func (st *pairState) stepReportMerkle(ctx context.Context, x *engine.Exec) error {
	// The count covers verified and replayed chunks alike: in differential
	// mode CAS pruning can replay a memoized divergence for a field whose
	// every candidate chunk was pruned from stage 2.
	st.res.ChangedChunks += st.changedChunks
	for _, fm := range st.ma.Fields {
		if !st.selected(fm.Name) {
			continue
		}
		st.res.TotalElements += fm.Tree.DataLen() / int64(fm.DType.Size())
	}
	st.sortedFieldDiffs(func(fi int) string { return st.ma.Fields[fi].Name }, len(st.ma.Fields))
	return nil
}

// addPipeline folds a stage-2 pipeline's virtual cost into the breakdown.
// Following the paper's timer structure (Fig. 6: "for small error bounds,
// we need to load more data which is why the verification time is
// dominant"), the verification phase owns its overlapped data loading:
// the whole pipeline time is charged to CompareDirect, while PhaseRead
// holds only the metadata reads.
func addPipeline(b *metrics.Breakdown, stats stream.Stats) {
	b.AddVirtual(metrics.PhaseCompareDirect, stats.PipelineVirtual)
}

// BuildAndSave builds metadata for a checkpoint already on the store and
// saves it alongside (the offline-tool flow of cmd/reprocmp).
func BuildAndSave(ctx context.Context, store *pfs.Store, name string, opts Options) (*Metadata, BuildStats, error) {
	r, _, err := ckpt.OpenReader(store, name)
	if err != nil {
		return nil, BuildStats{}, err
	}
	defer r.Close()
	m, stats, _, err := BuildFromReader(ctx, r, opts)
	if err != nil {
		return nil, stats, err
	}
	if _, err := SaveMetadata(store, name, m); err != nil {
		return nil, stats, err
	}
	return m, stats, nil
}
