package compare

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"sort"
	"strings"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/pfs"
)

// This file implements the paper's §5 future-work extension: online
// checkpoint compaction. Once a checkpoint's Merkle metadata exists, the
// boolean reproducibility question ("did anything move beyond ε, and in
// which chunks?") no longer needs the data — so old history can be
// compacted to metadata-only, freeing ~99.9 % of its storage while keeping
// every iteration comparable at chunk granularity.

// ErrCompacted is returned when a data-level comparison is attempted on a
// compacted checkpoint.
var ErrCompacted = errors.New("compare: checkpoint is compacted (metadata only)")

// CompactReport summarizes one compaction pass.
type CompactReport struct {
	// Removed lists the checkpoint files whose data was deleted.
	Removed []string
	// BytesFreed is the storage reclaimed.
	BytesFreed int64
	// MetadataBuilt lists checkpoints whose metadata had to be built
	// during the pass (it must exist before the data can be dropped).
	MetadataBuilt []string
}

// IsCompacted reports whether a checkpoint exists only as metadata: its
// data file is gone and its metadata file is there. A file that cannot be
// opened for any other reason (descriptor exhaustion, permissions, a symlink
// loop) is an error, never "compacted".
func IsCompacted(store *pfs.Store, name string) (bool, error) {
	if present, err := exists(store, name); present || err != nil {
		return false, err
	}
	return exists(store, MetadataName(name))
}

// exists reports whether the named file opens. Only fs.ErrNotExist means it
// does not.
func exists(store *pfs.Store, name string) (bool, error) {
	f, err := store.Open(name)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	f.Close()
	return true, nil
}

// CompactCheckpoint replaces one checkpoint with its metadata: metadata is
// built (with opts) if missing, then the data file is removed.
func CompactCheckpoint(ctx context.Context, store *pfs.Store, name string, opts Options) (built bool, freed int64, err error) {
	if _, _, _, lerr := LoadMetadata(ctx, store, name); lerr != nil {
		if cerr := ctx.Err(); cerr != nil {
			return false, 0, cerr
		}
		if _, _, err := BuildAndSave(ctx, store, name, opts); err != nil {
			return false, 0, fmt.Errorf("compact %s: build metadata: %w", name, err)
		}
		built = true
	}
	f, err := store.Open(name)
	if err != nil {
		return built, 0, fmt.Errorf("compact %s: %w", name, err)
	}
	size := f.Size()
	f.Close()
	if err := store.Remove(name); err != nil {
		return built, 0, err
	}
	return built, size, nil
}

// CompactHistory compacts every checkpoint of a run except the
// keepLatest most recent iterations (per rank). Metadata is built where
// missing so no comparability is lost. The history is listed up front, and
// each checkpoint is compacted under the options' retry policy with the
// context checked before it, so cancellation lands on a checkpoint
// boundary and the partial report stays truthful.
func CompactHistory(ctx context.Context, store *pfs.Store, runID string, keepLatest int, opts Options) (*CompactReport, error) {
	if keepLatest < 0 {
		keepLatest = 0
	}
	names, err := ckpt.History(store, runID)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("compare: run %q has no checkpoints to compact", runID)
	}
	// Determine the iterations to keep: the highest keepLatest distinct
	// iteration numbers.
	iterSet := map[int]bool{}
	for _, n := range names {
		_, it, _, _ := ckpt.ParseName(n)
		iterSet[it] = true
	}
	iters := make([]int, 0, len(iterSet))
	for it := range iterSet {
		iters = append(iters, it)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(iters)))
	keep := map[int]bool{}
	for i := 0; i < keepLatest && i < len(iters); i++ {
		keep[iters[i]] = true
	}

	report := &CompactReport{}
	for _, name := range names {
		_, it, _, _ := ckpt.ParseName(name)
		if keep[it] {
			continue
		}
		var built bool
		var freed int64
		_, err := opts.retryPolicy().Do(ctx, func(int) (err error) {
			built, freed, err = CompactCheckpoint(ctx, store, name, opts)
			return err
		})
		if err != nil {
			return report, err
		}
		if built {
			report.MetadataBuilt = append(report.MetadataBuilt, name)
		}
		report.Removed = append(report.Removed, name)
		report.BytesFreed += freed
	}
	return report, nil
}

// MetadataHistory lists the run's checkpoint names that still have
// metadata, whether or not their data survives — the comparable history
// after compaction.
func MetadataHistory(store *pfs.Store, runID string) ([]string, error) {
	names, err := store.List(runID + "/")
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range names {
		base, ok := strings.CutSuffix(n, ".mrkl")
		if !ok {
			continue
		}
		if _, _, _, ok := ckpt.ParseName(base); ok {
			out = append(out, base)
		}
	}
	ckpt.SortHistory(out)
	return out, nil
}

// CompareTreesOnly performs stage 1 alone from saved metadata: it answers
// whether (and in which chunks) two checkpoints may differ beyond ε,
// without touching checkpoint data — so it works on compacted history.
// Result.Diffs stays empty; DiffCount is 0 when the trees fully match and
// -1 (unknown count) when candidate chunks exist. Its engine plan is
// setup → load-metadata → tree-diff → report.
func CompareTreesOnly(ctx context.Context, store *pfs.Store, nameA, nameB string, opts Options) (*Result, error) {
	st, err := newPairState(store, nil, nameA, nameB, opts, "merkle-meta")
	if err != nil {
		return nil, err
	}
	st.ms.dataless = true
	var p engine.Plan
	st.ms.Stage1(&p, "setup")
	p.Add(engine.StepReport, "report", func(ctx context.Context, x *engine.Exec) error {
		if st.res.CandidateChunks > 0 {
			st.res.DiffCount = -1
		}
		return nil
	})
	return st.runPlan(ctx, &p)
}
