package compare

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cas"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/murmur3"
	"repro/internal/pfs"
)

// This file holds the differential (CAS-backed) comparison planner. A
// differentially captured checkpoint has no container file: its leaf
// manifest maps every chunk to an extent in the shared content-addressed
// pack. That changes both stages of the comparison:
//
//   - stage 1 is unchanged (the Merkle metadata is built from the same
//     digests the manifest records), but
//   - between stage 1 and stage 2 a pruning pass removes candidate chunks
//     whose verdict the store already proves: two sides resolving to the
//     same pack extent are identical by construction, and a digest pair
//     whose element-wise verdict was established by an earlier
//     differential comparison replays from the memo — zero read ops.
//   - stage 2 streams the surviving chunks from the pack — the plan's one
//     source, both sides' extents in one offset-ordered batch — so a
//     window's runs merge extents across sides and an extent two jobs name
//     is read once.
//
// Soundness hinges on full-digest keying: inside one CAS a digest names
// exactly one stored byte string, so any function of the chunk contents —
// including CompareSlices' divergent-index list — is a function of the
// digest pair. TestPruneKeysOnFullDigests guards the "full" part.

// memoKey identifies a memoized stage-2 verdict: the (ordered) digest
// pair and the element type the comparison ran under. ε is pinned by the
// memo itself.
type memoKey struct {
	a, b  murmur3.Digest
	dtype errbound.DType
}

// CASMemo memoizes stage-2 verdicts of differential comparisons: for a
// pair of CAS representatives, the chunk-relative divergent element
// indices (possibly empty — identical-within-ε is a verdict too, and the
// common one). Share one memo across the comparisons of a run sequence to
// skip re-verifying digest pairs that persist across iterations.
type CASMemo struct {
	eps float64

	mu sync.Mutex
	m  map[memoKey][]int64
}

// NewCASMemo returns an empty memo pinned to the comparison ε.
func NewCASMemo(epsilon float64) *CASMemo {
	return &CASMemo{eps: epsilon, m: make(map[memoKey][]int64)}
}

// Epsilon returns the ε the memo's verdicts were established under.
func (m *CASMemo) Epsilon() float64 { return m.eps }

// Len returns the number of memoized verdicts.
func (m *CASMemo) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.m)
}

// lookup returns the memoized chunk-relative divergence indices for a
// digest pair. The returned slice is shared and must not be mutated.
func (m *CASMemo) lookup(a, b murmur3.Digest, dtype errbound.DType) ([]int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	idx, ok := m.m[memoKey{a: a, b: b, dtype: dtype}]
	return idx, ok
}

// insert records a verdict (idx may be empty: provably identical within ε).
func (m *CASMemo) insert(a, b murmur3.Digest, dtype errbound.DType, idx []int64) {
	cp := make([]int64, len(idx))
	copy(cp, idx)
	m.mu.Lock()
	m.m[memoKey{a: a, b: b, dtype: dtype}] = cp
	m.mu.Unlock()
}

// checkMemo validates a memo against the comparison options; the
// differential member set runs it when it opens.
func checkMemo(memo *CASMemo, eps float64) error {
	if memo == nil {
		return nil
	}
	// Memoized verdicts are valid only at the exact ε they were
	// established under.
	if memo.eps != eps {
		return fmt.Errorf("compare: memo built for ε=%g, comparison at ε=%g", memo.eps, eps)
	}
	return nil
}

// CompareDiff runs the two-stage comparison of one differentially
// captured checkpoint pair: stage 1 over the saved Merkle metadata as in
// CompareMerkle, then a CAS pruning pass (extent equality and memoized
// verdicts remove candidate chunks without any read), then stage 2
// streaming the survivors' representative bytes from the shared pack.
// Both checkpoints must have been captured into cs with manifests on the
// given store. The pruning composes with the degradation ladder: a pruned
// chunk is proven, so it can never be counted Unverified.
func CompareDiff(ctx context.Context, store *pfs.Store, cs *cas.Store, nameA, nameB string, opts Options) (*Result, error) {
	st, err := newPairState(store, cs, nameA, nameB, opts, "merkle-cas")
	if err != nil {
		return nil, err
	}
	var p engine.Plan
	st.ms.Stage1(&p, "open-manifests")
	st.appendTo(&p, "plan-candidates", st.stepPlanCandidates)
	return st.runPlan(ctx, &p)
}
