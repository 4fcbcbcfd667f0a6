package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/merkle"
	"repro/internal/murmur3"
	"repro/internal/pfs"
)

// captureRing is both the number of pre-generated iteration variants and
// the number of checkpoint names they are written to round-robin, so at
// most captureRing checkpoints are live on the store.
const captureRing = 4

// captureInstance writes one iteration and builds its metadata per op.
type captureInstance struct {
	*planeEnv
	shape    shape
	opts     compare.Options
	variants [][][]byte       // [variant][field], held in memory like an application's state
	roots    []murmur3.Digest // oracle: compare.Build on the in-memory data
	inDigest murmur3.Digest
	casDir   string
}

func setupCaptureFull(ctx context.Context, e *env, dir string) (instance, error) {
	s := captureShape
	if e.smoke {
		s = s.smoke()
	}
	pe, err := newPlaneEnv(e, filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	in := generate(s, e.seed, captureRing-1)
	c := &captureInstance{
		planeEnv: pe, shape: s, opts: s.options(),
		variants: append([][][]byte{in.base}, in.variants...),
		inDigest: in.digest,
		casDir:   filepath.Join(dir, "cas"),
	}
	opts, err := pe.plane.NormalizeOptions(c.opts)
	if err != nil {
		_ = pe.plane.Close() // the options error is the one to report
		return nil, err
	}
	for _, data := range c.variants {
		meta, _, err := compare.Build(s.specs(), data, opts)
		if err != nil {
			_ = pe.plane.Close() // the build error is the one to report
			return nil, err
		}
		c.roots = append(c.roots, meta.CombinedRoot())
	}
	return c, nil
}

func (c *captureInstance) clients() int           { return 1 }
func (c *captureInstance) childPID() int          { return 0 }
func (c *captureInstance) digest() murmur3.Digest { return c.inDigest }
func (c *captureInstance) bytesPerOp() int64      { return c.shape.bytesPerRun() }
func (c *captureInstance) close() error           { return c.plane.Close() }

// captured is what one capture produced.
type captured struct {
	wall      time.Duration
	writeCost pfs.Cost
	stats     compare.BuildStats
}

// capture writes iteration variant v to ring slot v and builds its
// metadata; only the two public calls are timed.
func (c *captureInstance) capture(ctx context.Context, i int, tr *tracer) (captured, error) {
	v := i % captureRing
	meta := ckpt.Meta{RunID: "cap", Iteration: v, Fields: c.shape.specs()}
	name := ckpt.Name(meta.RunID, meta.Iteration, meta.Rank)
	// The ring slot's previous occupant goes first, untimed; on the first
	// lap there is none, which Remove reports and the op ignores.
	_ = c.store.Remove(name)
	_ = c.store.Remove(compare.MetadataName(name))

	var out captured
	root := tr.begin("op", "bench", i, -1)
	sp := tr.begin("ckpt.WriteCheckpoint", "ckpt", i, root)
	t0 := time.Now()
	cost, err := ckpt.WriteCheckpoint(c.store, meta, c.variants[v])
	tr.end(sp)
	if err != nil {
		tr.end(root)
		return out, err
	}
	sp = tr.begin("Session.BuildAndSave", "compare", i, root)
	md, stats, err := c.sess.BuildAndSave(ctx, c.store, name, c.opts)
	out.wall = time.Since(t0)
	tr.end(sp)
	tr.end(root)
	if err != nil {
		return out, err
	}
	if got := md.CombinedRoot(); got != c.roots[v] {
		return out, fmt.Errorf("iteration %d: saved root %v, oracle %v", v, got, c.roots[v])
	}
	out.writeCost, out.stats = cost, stats
	return out, nil
}

func (c *captureInstance) op(ctx context.Context, _, i int, tr *tracer) (time.Duration, error) {
	out, err := c.capture(ctx, i, tr)
	return out.wall, err
}

func (c *captureInstance) layers(ctx context.Context, spans []span, out map[string]float64) error {
	var err error
	if out["ckpt.write_ms_p50"], err = medianOf(durations(spans, "ckpt.WriteCheckpoint"), time.Millisecond); err != nil {
		return err
	}
	if out["compare.build_ms_p50"], err = medianOf(durations(spans, "Session.BuildAndSave"), time.Millisecond); err != nil {
		return err
	}

	// One pass over the ring gives the deterministic cost-model prices,
	// and checks that what was saved is what the oracle built.
	var write, hash, tree time.Duration
	var md *compare.Metadata
	for v := 0; v < captureRing; v++ {
		got, err := c.capture(ctx, v, nil)
		if err != nil {
			return err
		}
		write += c.store.Model().WriteTime(got.writeCost, c.store.Sharers())
		hash += got.stats.HashVirtual
		tree += got.stats.TreeVirtual
		if md, _, _, err = compare.LoadMetadata(ctx, c.store, ckpt.Name("cap", v, 0)); err != nil {
			return err
		}
		if md.CombinedRoot() != c.roots[v] {
			return fmt.Errorf("iteration %d: metadata on the store does not match the oracle", v)
		}
	}
	out["ckpt.write_virtual_ms"] = ms(write) / captureRing
	out["compare.build_hash_virtual_ms"] = ms(hash) / captureRing
	out["compare.build_tree_virtual_ms"] = ms(tree) / captureRing
	out["op_virtual_ms"] = ms(write+hash+tree) / captureRing
	out["compare.metadata_bytes"] = float64(md.Bytes())

	// Tree build from ready leaf digests, one field.
	t := md.Fields[0].Tree
	leaves := make([]murmur3.Digest, t.NumChunks())
	for i := range leaves {
		leaves[i] = t.Leaf(i)
	}
	exec := c.plane.Executor()
	d, err := timed(probeReps, func() error {
		nt, err := merkle.New(t.DataLen(), t.ChunkSize(), leaves)
		if err != nil {
			return err
		}
		nt.Build(exec)
		if nt.Root() != t.Root() {
			return fmt.Errorf("rebuilt root differs from the saved tree's")
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("tree-build probe: %w", err)
	}
	out["merkle.build_ms_p50"] = ms(d)

	if out["errbound.leaf_hash_f32_mbps"], err = probeLeafHash(c.variants[0][0], c.shape.eps, c.shape.chunk); err != nil {
		return fmt.Errorf("leaf-hash probe: %w", err)
	}
	return c.probeCAS(ctx, out)
}

// probeCAS captures the same ring differentially into a second store,
// two laps, then compares two of its iterations through the CAS with the
// plane's memo: a guard for the capture-dedup path, which no workload
// exercises end to end yet.
func (c *captureInstance) probeCAS(ctx context.Context, out map[string]float64) error {
	store, err := pfs.NewStore(c.casDir, pfs.LustreModel())
	if err != nil {
		return err
	}
	cs, err := c.plane.CAS(ctx, store)
	if err != nil {
		return err
	}
	opts, err := c.plane.NormalizeOptions(c.opts)
	if err != nil {
		return err
	}
	capt, err := compare.NewDiffCapturer(store, cs, opts)
	if err != nil {
		return err
	}
	var walls []time.Duration
	var chunks, hits int
	var diffBytes, fullBytes int64
	for it := 0; it < 2*captureRing; it++ {
		meta := ckpt.Meta{RunID: "cap", Iteration: it, Fields: c.shape.specs()}
		t0 := time.Now()
		rep, err := capt.Capture(ctx, meta, c.variants[it%captureRing])
		walls = append(walls, time.Since(t0))
		if err != nil {
			return fmt.Errorf("differential capture %d: %w", it, err)
		}
		chunks += rep.Stats.Chunks
		hits += rep.Stats.DedupHits
		diffBytes += rep.Cost.Bytes
		fullBytes += c.shape.bytesPerRun()
	}
	if out["cas.capture_ms_p50"], err = medianOf(walls, time.Millisecond); err != nil {
		return err
	}
	out["cas.dedup_hit_frac"] = float64(hits) / float64(chunks)
	out["cas.bytes_saved_frac"] = 1 - float64(diffBytes)/float64(fullBytes)

	memo := c.opts
	memo.Memo = c.plane.Memo(c.opts.Epsilon)
	nameA, nameB := ckpt.Name("cap", 0, 0), ckpt.Name("cap", 1, 0)
	for pass := 0; pass < 2; pass++ { // the first pass warms the memo
		store.EvictAll()
		ops0, _ := store.ReadStats()
		if _, err := c.sess.CompareDiff(ctx, store, cs, nameA, nameB, memo); err != nil {
			return fmt.Errorf("CompareDiff: %w", err)
		}
		ops1, _ := store.ReadStats()
		out["cas.comparediff_read_ops"] = float64(ops1 - ops0)
	}
	return nil
}
