package compare

import (
	"context"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/pfs"
)

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
	st, err := newPairState(store, nil, nameA, nameB, opts, "merkle")
	if err != nil {
		return nil, err
	}
	var p engine.Plan
	st.appendTo(&p, "plan-candidates", st.stepPlanCandidates, st.ms.Stage1(&p, "open-checkpoints"))
	return st.runPlan(ctx, &p)
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
