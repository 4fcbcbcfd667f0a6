package compare

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/engine"
	"repro/internal/pfs"
)

// Method selects a comparison approach.
type Method int

// Comparison methods.
const (
	// MethodMerkle is the paper's contribution: metadata-driven two-stage
	// comparison.
	MethodMerkle Method = iota + 1
	// MethodDirect is the optimized element-wise baseline.
	MethodDirect
	// MethodAllClose is the naive boolean baseline.
	MethodAllClose
)

// String returns the method's report name.
func (m Method) String() string {
	switch m {
	case MethodMerkle:
		return "merkle"
	case MethodDirect:
		return "direct"
	case MethodAllClose:
		return "allclose"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Run dispatches one checkpoint-pair comparison by method.
func (m Method) Run(ctx context.Context, store *pfs.Store, nameA, nameB string, opts Options) (*Result, error) {
	switch m {
	case MethodMerkle:
		return CompareMerkle(ctx, store, nameA, nameB, opts)
	case MethodDirect:
		return CompareDirect(ctx, store, nameA, nameB, opts)
	case MethodAllClose:
		_, res, err := CompareAllClose(ctx, store, nameA, nameB, opts)
		return res, err
	default:
		return nil, fmt.Errorf("compare: unknown method %d", int(m))
	}
}

// PairReport is the comparison of one aligned checkpoint pair.
type PairReport struct {
	// Iteration and Rank identify the checkpoint within the histories.
	Iteration int
	Rank      int
	// NameA and NameB are the compared file names.
	NameA, NameB string
	// MetadataOnly marks a pair where at least one side was compacted, so
	// the comparison fell back to the metadata-only tree diff
	// (CompareTreesOnly) regardless of the requested method.
	MetadataOnly bool
	// Result is the comparison outcome.
	Result *Result
}

// HistoryReport is the comparison of two runs' full checkpoint histories,
// the multi-run analysis of the paper's problem formulation.
type HistoryReport struct {
	// RunA and RunB are the compared run IDs.
	RunA, RunB string
	// Pairs holds one report per aligned checkpoint, ordered by iteration
	// then rank. On an error or cancellation mid-history this holds the
	// pairs completed before the failure — partial but truthful.
	Pairs []PairReport
	// FirstDivergence points at the earliest pair with an out-of-bound
	// difference (nil if the runs are reproducible within ε).
	FirstDivergence *PairReport
}

// TotalDiffs sums divergent elements across all pairs.
func (h *HistoryReport) TotalDiffs() int64 {
	var t int64
	for i := range h.Pairs {
		if d := h.Pairs[i].Result.DiffCount; d > 0 {
			t += d
		}
	}
	return t
}

// Reproducible reports whether no checkpoint pair diverged beyond ε.
func (h *HistoryReport) Reproducible() bool { return h.FirstDivergence == nil }

// Degraded reports whether any pair completed on a degraded path
// (unverified chunks or a metadata-only verdict): absence of divergence is
// then inconclusive even when Reproducible returns true.
func (h *HistoryReport) Degraded() bool {
	for i := range h.Pairs {
		if h.Pairs[i].Result.Inconclusive() {
			return true
		}
	}
	return false
}

// unionHistory lists a run's comparable checkpoints: the union of its data
// files (ckpt.History) and its metadata-only survivors (MetadataHistory),
// so compacted history still aligns. Sorted by iteration then rank.
func unionHistory(store *pfs.Store, runID string) ([]string, error) {
	data, err := ckpt.History(store, runID)
	if err != nil {
		return nil, err
	}
	meta, err := MetadataHistory(store, runID)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(data)+len(meta))
	out := make([]string, 0, len(data)+len(meta))
	for _, n := range data {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	for _, n := range meta {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		_, ii, ri, _ := ckpt.ParseName(out[i])
		_, ij, rj, _ := ckpt.ParseName(out[j])
		if ii != ij {
			return ii < ij
		}
		return ri < rj
	})
	return out, nil
}

// CompareHistories aligns the checkpoint histories of two runs on a store
// (by iteration and rank) and compares every pair with the given method.
// Histories align on the union of data checkpoints and metadata-only
// survivors, so a pair with a compacted side degrades to the metadata-only
// tree diff instead of failing; both histories must still contain the same
// set of (iteration, rank) captures. The planner emits one step per pair,
// so cancellation lands on a pair boundary; on error or cancellation the
// returned report holds the pairs completed so far alongside the error.
func CompareHistories(ctx context.Context, store *pfs.Store, runA, runB string, method Method, opts Options) (*HistoryReport, error) {
	histA, err := unionHistory(store, runA)
	if err != nil {
		return nil, err
	}
	histB, err := unionHistory(store, runB)
	if err != nil {
		return nil, err
	}
	if len(histA) == 0 {
		return nil, fmt.Errorf("compare: run %q has no checkpoints", runA)
	}
	if len(histA) != len(histB) {
		return nil, fmt.Errorf("compare: histories have %d vs %d checkpoints", len(histA), len(histB))
	}
	report := &HistoryReport{RunA: runA, RunB: runB, Pairs: make([]PairReport, 0, len(histA))}
	var p engine.Plan
	p.Retry = opts.retryPolicy()
	for i := range histA {
		nameA, nameB := histA[i], histB[i]
		_, itA, rkA, _ := ckpt.ParseName(nameA)
		_, itB, rkB, _ := ckpt.ParseName(nameB)
		if itA != itB || rkA != rkB {
			return nil, fmt.Errorf("compare: history misalignment at %s vs %s", nameA, nameB)
		}
		it, rk := itA, rkA
		p.Add(engine.StepStreamVerify, fmt.Sprintf("pair:iter=%d:rank=%d", it, rk),
			func(ctx context.Context, x *engine.Exec) error {
				metaOnly, err := IsCompacted(store, nameA)
				if err == nil && !metaOnly {
					metaOnly, err = IsCompacted(store, nameB)
				}
				if err != nil {
					return fmt.Errorf("compare: pair iter=%d rank=%d: %w", it, rk, err)
				}
				var res *Result
				if metaOnly {
					res, err = CompareTreesOnly(ctx, store, nameA, nameB, opts)
				} else {
					res, err = method.Run(ctx, store, nameA, nameB, opts)
				}
				if err != nil {
					return fmt.Errorf("compare: pair iter=%d rank=%d: %w", it, rk, err)
				}
				report.Pairs = append(report.Pairs, PairReport{
					Iteration: it, Rank: rk, NameA: nameA, NameB: nameB,
					MetadataOnly: metaOnly, Result: res,
				})
				if res.DiffCount != 0 && report.FirstDivergence == nil {
					report.FirstDivergence = &report.Pairs[len(report.Pairs)-1]
				}
				return nil
			})
	}
	if _, err := engine.Execute(ctx, &p); err != nil {
		return report, err
	}
	return report, nil
}
