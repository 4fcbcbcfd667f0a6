package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/aio"
	"repro/internal/ckpt"
	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/merkle"
)

// probeReps is how often a standalone probe repeats its call; the metric
// is the median.
const probeReps = 21

// mbps is megabytes per second.
func mbps(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// timed runs fn reps times and returns the median wall time.
func timed(reps int, fn func() error) (time.Duration, error) {
	walls := make([]time.Duration, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		err := fn()
		walls = append(walls, time.Since(t0))
		if err != nil {
			return 0, err
		}
	}
	return median(sortDurations(walls))
}

// probePool measures, on the pool's first pair, the single layers a
// comparison passes through: metadata load, tree diff, checkpoint open,
// kernel dispatch, the ε-compare kernel and the scattered-read engine —
// the last two over exactly the chunks stage 1 marks as candidates.
func probePool(ctx context.Context, pe *planeEnv, p *pool, out map[string]float64) error {
	nameA, nameB := p.names[0], p.names[1]
	opts, err := pe.plane.NormalizeOptions(p.opts)
	if err != nil {
		return err
	}

	var metaA, metaB *compare.Metadata
	d, err := timed(probeReps, func() (err error) {
		pe.store.EvictAll()
		if metaA, _, _, err = compare.LoadMetadata(ctx, pe.store, nameA); err != nil {
			return err
		}
		metaB, _, _, err = compare.LoadMetadata(ctx, pe.store, nameB)
		return err
	})
	if err != nil {
		return fmt.Errorf("load-metadata probe: %w", err)
	}
	out["compare.load_metadata_ms_p50"] = ms(d)
	out["compare.metadata_bytes"] = float64(metaA.Bytes())

	// Tree diff, one call per field pair.
	cands := make([][]int, len(metaA.Fields))
	var diffWalls []time.Duration
	for r := 0; r < probeReps; r++ {
		for f := range metaA.Fields {
			ta, tb := metaA.Fields[f].Tree, metaB.Fields[f].Tree
			t0 := time.Now()
			chunks, _, err := merkle.Diff(ta, tb, ta.DefaultStartLevel(opts.Exec.Workers()), opts.Exec)
			diffWalls = append(diffWalls, time.Since(t0))
			if err != nil {
				return fmt.Errorf("tree-diff probe: %w", err)
			}
			cands[f] = chunks
		}
	}
	dm, err := median(sortDurations(diffWalls))
	if err != nil {
		return err
	}
	out["merkle.diff_us_p50"] = us(dm)

	d, err = timed(probeReps, func() error {
		r, _, err := ckpt.OpenReader(pe.store, nameA)
		if err != nil {
			return err
		}
		return r.Close()
	})
	if err != nil {
		return fmt.Errorf("open probe: %w", err)
	}
	out["ckpt.open_us_p50"] = us(d)

	// Kernel dispatch at the width the tree diff and stage 2 use.
	nChunks := metaA.Fields[0].Tree.NumChunks()
	d, err = timed(10*probeReps, func() error {
		opts.Exec.For(nChunks, func(int) {})
		return nil
	})
	if err != nil {
		return err
	}
	out["device.pool_for_us_p50"] = us(d)

	return probeCandidates(ctx, pe, p, metaA, cands, out)
}

// probeCandidates reads the candidate chunks of the first pair through
// the plane's ring and runs the ε-compare kernel over them on one
// goroutine.
func probeCandidates(ctx context.Context, pe *planeEnv, p *pool, meta *compare.Metadata, cands [][]int, out map[string]float64) error {
	ra, _, err := ckpt.OpenReader(pe.store, p.names[0])
	if err != nil {
		return err
	}
	defer ra.Close()
	rb, _, err := ckpt.OpenReader(pe.store, p.names[1])
	if err != nil {
		return err
	}
	defer rb.Close()

	var reqsA, reqsB []aio.ReadReq
	var total int64
	for f, chunks := range cands {
		tree := meta.Fields[f].Tree
		for _, c := range chunks {
			off, n := tree.ChunkRange(c)
			reqsA = append(reqsA, aio.ReadReq{Off: ra.FieldFileOffset(f) + off, Len: n, Buf: make([]byte, n), Tag: len(reqsA)})
			reqsB = append(reqsB, aio.ReadReq{Off: rb.FieldFileOffset(f) + off, Len: n, Buf: make([]byte, n), Tag: len(reqsB)})
			total += 2 * int64(n)
		}
	}
	if len(reqsA) == 0 {
		return nil // runs agree within ε: stage 2 has nothing to read
	}

	d, err := timed(probeReps, func() error {
		pe.store.EvictAll()
		cost, _, err := pe.plane.Backend().ReadBatchPair(ctx, ra.File(), rb.File(), reqsA, reqsB)
		out["aio.read_batch_ops"] = float64(cost.Ops + cost.CachedOps)
		return err
	})
	if err != nil {
		return fmt.Errorf("read-batch probe: %w", err)
	}
	out["aio.read_batch_mbps"] = mbps(total, d)

	h, err := errbound.NewHasher(errbound.Float32, p.shape.eps)
	if err != nil {
		return err
	}
	var dst []int64
	d, err = timed(probeReps, func() error {
		for i := range reqsA {
			if dst, _, err = h.CompareSlices(dst[:0], reqsA[i].Buf, reqsB[i].Buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ε-compare probe: %w", err)
	}
	out["errbound.compare_f32_mbps"] = mbps(total, d)
	return nil
}

// probeLeafHash hashes one field chunk by chunk on one goroutine: the
// fused quantize+hash kernel capture spends its time in.
func probeLeafHash(field []byte, eps float64, chunk int) (float64, error) {
	h, err := errbound.NewHasher(errbound.Float32, eps)
	if err != nil {
		return 0, err
	}
	scratch := make([]byte, 16)
	d, err := timed(probeReps, func() error {
		for off := 0; off < len(field); off += chunk {
			if _, err := h.HashChunkScratch(field[off:min(off+chunk, len(field))], scratch); err != nil {
				return err
			}
		}
		return nil
	})
	return mbps(int64(len(field)), d), err
}
