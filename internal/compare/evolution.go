package compare

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/ckpt"
	"repro/internal/pfs"
)

// EvolutionPoint is one consecutive-iteration self-comparison within a
// single run.
type EvolutionPoint struct {
	// FromIter and ToIter are the compared iterations.
	FromIter, ToIter int
	// Rank is the process rank.
	Rank int
	// CandidateChunks counts chunks whose ε-hashes changed between the
	// two iterations; TotalChunks is the denominator.
	CandidateChunks, TotalChunks int
}

// ChangedFraction returns the chunk-level rate of change.
func (p EvolutionPoint) ChangedFraction() float64 {
	if p.TotalChunks == 0 {
		return 0
	}
	return float64(p.CandidateChunks) / float64(p.TotalChunks)
}

// EvolutionReport profiles how fast ONE run's state evolves relative to ε:
// each point tree-diffs two consecutive checkpoints of the same rank. The
// paper's conclusions suggest using the low cost of tree construction "to
// determine when to take checkpoints or perform more costly analyses" —
// this report is that signal: a run whose consecutive checkpoints stop
// changing is checkpointing too often (or has converged), one that changes
// everywhere is checkpointing too rarely.
type EvolutionReport struct {
	// RunID is the profiled run.
	RunID string
	// Points are ordered by rank then iteration.
	Points []EvolutionPoint
}

// Evolution builds the report from saved metadata only (it works on
// compacted history). Every checkpoint of the run must have metadata at
// the options' ε and chunk size. The history is listed up front, and each
// consecutive pair is tree-diffed under the options' retry policy with the
// context checked before it, so cancellation lands on a pair boundary.
func Evolution(ctx context.Context, store *pfs.Store, runID string, opts Options) (*EvolutionReport, error) {
	names, err := MetadataHistory(store, runID)
	if err != nil {
		return nil, err
	}
	if len(names) < 2 {
		return nil, fmt.Errorf("compare: run %q needs >= 2 checkpoints with metadata, has %d", runID, len(names))
	}
	// Group by rank, ordered by iteration (MetadataHistory sorts by
	// iteration then rank).
	byRank := map[int][]string{}
	ranks := []int{}
	for _, n := range names {
		_, _, rank, _ := ckpt.ParseName(n)
		if _, ok := byRank[rank]; !ok {
			ranks = append(ranks, rank)
		}
		byRank[rank] = append(byRank[rank], n)
	}
	slices.Sort(ranks)
	report := &EvolutionReport{RunID: runID}
	for _, rank := range ranks {
		seq := byRank[rank]
		for i := 1; i < len(seq); i++ {
			from, to := seq[i-1], seq[i]
			var res *Result
			_, err := opts.retryPolicy().Do(ctx, func(int) (err error) {
				if res, err = CompareTreesOnly(ctx, store, from, to, opts); err != nil {
					return fmt.Errorf("compare: evolution %s -> %s: %w", from, to, err)
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			_, fromIter, _, _ := ckpt.ParseName(from)
			_, toIter, _, _ := ckpt.ParseName(to)
			report.Points = append(report.Points, EvolutionPoint{
				FromIter:        fromIter,
				ToIter:          toIter,
				Rank:            rank,
				CandidateChunks: res.CandidateChunks,
				TotalChunks:     res.TotalChunks,
			})
		}
	}
	return report, nil
}
