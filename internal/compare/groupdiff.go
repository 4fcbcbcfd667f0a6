package compare

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/cas"
	"repro/internal/engine"
	"repro/internal/pfs"
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
	return groupCompare(ctx, store, cs, baseline, runs, topology, opts)
}

// stepMergePackUnion builds the group's single read plan: the union of
// every surviving (member, field, chunk) need, as distinct pack extents —
// a chunk deduplicated across members (or needed by several pairs) is read
// exactly once for the whole group. Each member's union fields index the
// shared buffer by extent, so verifyPair works unchanged.
func (st *groupState) stepMergePackUnion(ctx context.Context, x *engine.Exec) error {
	st.planUnionFields()
	mans := st.ms.mans
	var locs []cas.Loc
	for m := range st.unions {
		for fi := range st.unions[m].fields {
			for _, ci := range st.unions[m].fields[fi].chunks {
				locs = append(locs, mans[m].Fields[fi].Locs[ci])
			}
		}
	}
	slices.SortFunc(locs, cmpLoc)
	locs = slices.Compact(locs)
	st.reads = []unionRead{{file: st.ms.pack, locs: locs}}
	rd := &st.reads[0]

	// starts[k] is where extent k lands in the shared buffer.
	starts := make([]int64, len(locs))
	for k, loc := range locs {
		starts[k] = rd.bytes
		rd.bytes += int64(loc.Len)
	}
	for m := range st.unions {
		st.unions[m].read = rd
		for fi := range st.unions[m].fields {
			uf := &st.unions[m].fields[fi]
			if len(uf.chunks) == 0 {
				continue
			}
			uf.pos = make([]int64, len(uf.chunks))
			for k, ci := range uf.chunks {
				at, _ := slices.BinarySearchFunc(locs, mans[m].Fields[fi].Locs[ci], cmpLoc)
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
