package compare

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/ckpt"
	"repro/internal/merkle"
	"repro/internal/metrics"
	"repro/internal/pfs"
)

// DiffCaptureReport summarizes one differential capture: the dedup
// outcome, the total write cost, and how the Merkle metadata was brought
// up to date.
type DiffCaptureReport struct {
	// Manifest is the saved leaf manifest of this checkpoint (nil until it
	// is saved).
	Manifest *cas.Manifest
	// Stats aggregates the CAS dedup outcome.
	Stats cas.CaptureStats
	// Cost covers every write: pack, index, manifest, and metadata. On
	// error it and Stats are partial but truthful: the writes that completed.
	Cost pfs.Cost
	// Cold reports that the rank had no previous tree of this schema: the
	// tree was built from scratch rather than updated incrementally.
	Cold bool
	// UpdatedLeaves is the number of leaf digests that changed since the
	// previous iteration (0 on the cold path).
	UpdatedLeaves int
	// RehashedNodes counts interior nodes recomputed by the incremental
	// update (0 on the cold path, where every node is computed).
	RehashedNodes int
	// TreeWall is the wall time of metadata construction — incremental
	// update on the warm path, full build on the cold path.
	TreeWall time.Duration
}

// DiffCapturer captures a sequence of checkpoints differentially: chunks
// are deduplicated through a shared CAS, and each iteration's Merkle
// metadata is derived from the previous iteration's tree by incremental
// update (merkle.Update over the changed leaves) instead of a full
// rebuild. One capturer serves one run; iterations of distinct ranks are
// tracked independently. Safe for concurrent use across ranks.
//
// The saved artifacts — a .cman manifest and .mrkl metadata per
// checkpoint — are exactly what CompareDiff and GroupCompareDiff consume.
type DiffCapturer struct {
	store *pfs.Store
	cs    *cas.Store
	opts  Options

	mu   sync.Mutex
	prev map[int]*Metadata // rank → previous iteration's saved trees
}

// NewDiffCapturer validates the options and returns a capturer writing
// through the given CAS.
func NewDiffCapturer(store *pfs.Store, cs *cas.Store, opts Options) (*DiffCapturer, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	return &DiffCapturer{store: store, cs: cs, opts: opts, prev: make(map[int]*Metadata)}, nil
}

// Capture differentially captures one checkpoint (data in meta.Fields
// order) and saves its manifest and Merkle metadata. It is the differential
// sink of the pipeline Build runs: the one leaf loop hashes every chunk, the
// CAS stores the chunks whose digest it does not hold yet, and the trees
// come from the previous iteration's by updating the leaves that moved — or
// from the tree half of a full build when there is no previous iteration
// with this schema. The golden property — asserted by
// TestDiffCaptureGoldenIncrementalRoot and re-checked by
// TestCaptureMatchesBaseline at every divergence level — is that the incrementally updated tree is
// bit-identical to a full rebuild.
//
// A checkpoint whose buffers do not fit their specs is refused before
// anything is hashed or written. A capture that is canceled — the context is
// the leaf loop's done channel and is looked at again before each field's
// put — or whose put fails saves neither manifest nor metadata: the chunks
// already in the pack stay, as dedup targets no manifest references. On
// every error path the rank's previous state remains the last capture that
// succeeded, and the report's Cost and Stats cover exactly the writes that
// completed.
func (c *DiffCapturer) Capture(ctx context.Context, meta ckpt.Meta, data [][]byte) (*DiffCaptureReport, error) {
	rep := &DiffCaptureReport{}
	leaves, _, err := hashLeaves(ctx.Done(), meta.Fields, nil, data, c.opts)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			err = cerr
		}
		return rep, err
	}

	// Store new chunks field by field; dedup spans fields, iterations, and
	// runs because the CAS index is shared.
	man := &cas.Manifest{Epsilon: c.opts.Epsilon, ChunkSize: c.opts.ChunkSize, Fields: make([]cas.FieldManifest, len(meta.Fields))}
	for i, f := range meta.Fields {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		locs, stats, cost, err := c.cs.PutChunks(data[i], c.opts.ChunkSize, leaves[i])
		rep.Stats.Add(stats)
		rep.Cost.Add(cost)
		if err != nil {
			return rep, fmt.Errorf("compare: differential capture of field %q: %w", f.Name, err)
		}
		man.Fields[i] = cas.FieldManifest{Name: f.Name, DType: f.DType, Count: f.Count, Digests: leaves[i], Locs: locs}
	}
	name := ckpt.Name(meta.RunID, meta.Iteration, meta.Rank)
	mcost, err := cas.SaveManifest(c.store, name, man)
	rep.Cost.Add(mcost)
	if err != nil {
		return rep, fmt.Errorf("compare: save manifest for %s: %w", name, err)
	}
	rep.Manifest = man

	// Bring the Merkle metadata up to date. The previous tree is the only
	// previous state: its leaves are the previous digests, so the changed
	// set and the update list come from one pass over the new leaves. A
	// schema change degrades to the cold path rather than erroring.
	c.mu.Lock()
	prev := c.prev[meta.Rank]
	c.mu.Unlock()
	sw := metrics.NewStopwatch()
	var m *Metadata
	rep.Cold = !c.updatable(prev, meta.Fields)
	if rep.Cold {
		if m, _, err = buildTrees(meta.Fields, leaves, c.opts); err != nil {
			return rep, err
		}
	} else {
		m = &Metadata{Epsilon: c.opts.Epsilon, Fields: make([]FieldMeta, len(meta.Fields))}
		for fi, f := range meta.Fields {
			tree := prev.Fields[fi].Tree.Clone()
			var updates []merkle.LeafUpdate
			for ci, d := range leaves[fi] {
				if d != tree.Leaf(ci) {
					updates = append(updates, merkle.LeafUpdate{Chunk: ci, Digest: d})
				}
			}
			n, err := tree.Update(updates, c.opts.Exec)
			if err != nil {
				return rep, err
			}
			rep.UpdatedLeaves += len(updates)
			rep.RehashedNodes += n
			m.Fields[fi] = FieldMeta{Name: f.Name, DType: f.DType, Tree: tree}
		}
	}
	rep.TreeWall = sw.Lap()

	mcost, err = SaveMetadata(c.store, name, m)
	rep.Cost.Add(mcost)
	if err != nil {
		return rep, err
	}

	c.mu.Lock()
	c.prev[meta.Rank] = m
	c.mu.Unlock()
	return rep, nil
}

// updatable reports whether prev's trees can be updated into this
// checkpoint's instead of rebuilt: the same ε and, field for field, the same
// name, dtype, length and chunking — anything else changes what a leaf is.
func (c *DiffCapturer) updatable(prev *Metadata, fields []ckpt.FieldSpec) bool {
	// Digest parameters must match bitwise, not approximately.
	if prev == nil || prev.Epsilon != c.opts.Epsilon || len(prev.Fields) != len(fields) {
		return false
	}
	for i, f := range fields {
		p := prev.Fields[i]
		if p.Name != f.Name || p.DType != f.DType || p.Tree.DataLen() != f.Bytes() || p.Tree.ChunkSize() != c.opts.ChunkSize {
			return false
		}
	}
	return true
}
