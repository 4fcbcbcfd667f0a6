package compare

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/cas"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/simclock"
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
//   - stage 2 streams the surviving chunks from the pack (one file, both
//     sides), so the coalescer merges extents across sides.
//
// Soundness hinges on full-digest keying: inside one CAS a digest names
// exactly one stored byte string, so any function of the chunk contents —
// including CompareSlices' divergent-index list — is a function of the
// digest pair. The casprune lint rule guards the "full" part.

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

// checkMemo validates a memo against the comparison options.
func checkMemo(memo *CASMemo, eps float64) error {
	if memo == nil {
		return nil
	}
	//lint:ignore floatcmp memoized verdicts are valid only at the exact ε they were established under
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
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := checkMemo(opts.Memo, opts.Epsilon); err != nil {
		return nil, err
	}
	st := newPairState(store, nameA, nameB, opts, "merkle-cas")
	st.diffMode = true
	st.cs = cs
	var p engine.Plan
	p.Retry = opts.Retry
	open := p.Add(engine.StepSetup, "open-manifests", st.stepOpenDiff)
	load := p.Add(engine.StepLoadMetadata, "load-metadata", st.stepLoadMetadata, open)
	diff := p.Add(engine.StepTreeDiff, "tree-diff", st.stepTreeDiff, load)
	prune := p.Add(engine.StepTreeDiff, "cas-prune", st.stepCASPrune, diff)
	coal := p.Add(engine.StepCoalesce, "assemble-batches", st.stepAssemblePairs, prune)
	verify := p.Add(engine.StepStreamVerify, "stream-verify", st.stepStreamVerify, coal)
	p.Add(engine.StepReport, "report", st.stepReportMerkle, verify)
	return st.runPlan(ctx, &p)
}

// stepOpenDiff loads and validates both leaf manifests and opens the
// shared pack on the cleanup chain — the differential counterpart of
// stepOpenPair.
func (st *pairState) stepOpenDiff(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	manA, costA, err := cas.LoadManifest(ctx, st.store, st.nameA)
	if err != nil {
		return err
	}
	manB, costB, err := cas.LoadManifest(ctx, st.store, st.nameB)
	if err != nil {
		return err
	}
	if !cas.SameSchema(manA, manB) {
		return fmt.Errorf("compare: manifests of %s and %s have different schemas", st.nameA, st.nameB)
	}
	//lint:ignore floatcmp,epsflow manifest digests are only comparable at the exact ε they were captured with
	if manA.Epsilon != st.opts.Epsilon {
		return fmt.Errorf("compare: manifest ε %g does not match requested ε %g", manA.Epsilon, st.opts.Epsilon)
	}
	pack, err := st.cs.Pack()
	if err != nil {
		return err
	}
	x.CloseOnExit(pack)
	st.manA, st.manB, st.pack = manA, manB, pack
	st.res.CheckpointBytes = manA.TotalBytes()

	var c pfs.Cost
	c.Add(costA)
	c.Add(costB)
	st.res.BytesRead += c.TotalBytes()
	readV := st.store.Model().SerialReadTime(c, st.store.Sharers())
	deserV := simclock.BandwidthTime(c.TotalBytes(), deserializeBytesPerSec)
	st.res.Breakdown.AddVirtual(metrics.PhaseRead, readV)
	st.res.Breakdown.AddVirtual(metrics.PhaseDeserialize, deserV)
	st.res.Breakdown.AddVirtual(metrics.PhaseSetup, st.opts.SetupVirtual)
	st.res.Breakdown.AddWall(metrics.PhaseSetup, sw.Lap())
	x.AddVirtual(st.opts.SetupVirtual + readV + deserV)
	return nil
}

// stepCASPrune removes candidate chunks whose verdict the store proves
// without reading: extent equality (both sides deduplicated to the same
// representative — identical by construction) and memoized digest-pair
// verdicts (replayed into the divergence lists). Pruned chunks cost zero
// stage-2 read ops and are excluded from the degradation ladder's
// unverified accounting — their verdict is proven, not skipped.
func (st *pairState) stepCASPrune(ctx context.Context, x *engine.Exec) error {
	if !st.diffMode {
		return nil
	}
	memo := st.opts.Memo
	kept := st.candidates[:0]
	for _, fc := range st.candidates {
		fA := &st.manA.Fields[fc.field]
		fB := &st.manB.Fields[fc.field]
		chunkElems := int64(st.manA.ChunkSize) / int64(fA.DType.Size())
		keptChunks := fc.chunks[:0]
		for _, ci := range fc.chunks {
			if fA.Locs[ci] == fB.Locs[ci] {
				// Same representative extent: provably identical, and a
				// pure stage-1 false positive (possible only when the
				// metadata trees predate the shared capture).
				st.res.CASPrunedChunks++
				continue
			}
			if memo != nil {
				if idx, ok := memo.lookup(fA.Digests[ci], fB.Digests[ci], fA.DType); ok {
					st.res.CASPrunedChunks++
					st.replayVerdict(fc.field, int64(ci)*chunkElems, idx)
					continue
				}
			}
			keptChunks = append(keptChunks, ci)
		}
		if len(keptChunks) > 0 {
			kept = append(kept, fieldCandidates{field: fc.field, chunks: keptChunks})
		}
	}
	st.candidates = kept
	return nil
}

// replayVerdict lands a memoized chunk verdict in the result exactly as a
// stage-2 verification of the same pair would have.
func (st *pairState) replayVerdict(field int, baseElem int64, idx []int64) {
	for _, e := range idx {
		st.fieldDiffs[field] = append(st.fieldDiffs[field], baseElem+e)
	}
	if len(idx) > 0 {
		st.changedChunks++
	}
}
