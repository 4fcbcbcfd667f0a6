package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/compare"
	"repro/internal/murmur3"
)

// groupInstance compares the base run against all three variants as one
// star plan per op.
type groupInstance struct {
	*planeEnv
	pool  *pool
	steps stepStats
}

func setupGroupStar(ctx context.Context, e *env, dir string) (instance, error) {
	pe, p, err := setupPool(ctx, e, filepath.Join(dir, "store"), groupShape)
	if err != nil {
		return nil, err
	}
	return &groupInstance{planeEnv: pe, pool: p}, nil
}

func (g *groupInstance) clients() int           { return 1 }
func (g *groupInstance) childPID() int          { return 0 }
func (g *groupInstance) digest() murmur3.Digest { return g.pool.digest }
func (g *groupInstance) bytesPerOp() int64      { return (1 + poolVariants) * g.pool.shape.bytesPerRun() }
func (g *groupInstance) close() error           { return g.plane.Close() }

func (g *groupInstance) run(ctx context.Context) (*compare.GroupReport, error) {
	return g.sess.GroupCompare(ctx, g.store, g.pool.names[0], g.pool.names[1:], compare.TopologyStar, g.pool.opts)
}

func (g *groupInstance) op(ctx context.Context, _, i int, tr *tracer) (time.Duration, error) {
	g.store.EvictAll()
	root := tr.begin("op", "bench", i, -1)
	call := tr.begin("Session.GroupCompare", "service", i, root)
	t0 := time.Now()
	rep, err := g.run(ctx)
	wall := time.Since(t0)
	tr.end(call)
	tr.end(root)
	if err != nil {
		return 0, err
	}
	if err := g.check(rep); err != nil {
		return 0, err
	}
	if tr != nil {
		g.steps.record(tr, call, wall, rep.Steps)
	}
	return wall, nil
}

// check holds every pair of the group against its oracle count.
func (g *groupInstance) check(rep *compare.GroupReport) error {
	if len(rep.Pairs) != poolVariants {
		return fmt.Errorf("group compared %d pairs, want %d", len(rep.Pairs), poolVariants)
	}
	for _, pr := range rep.Pairs {
		if pr.A != 0 || pr.Result.DiffCount != g.pool.diffs[pr.B] {
			return fmt.Errorf("%s vs %s: DiffCount %d, oracle %d", pr.NameA, pr.NameB, pr.Result.DiffCount, g.pool.diffs[pr.B])
		}
	}
	if sv, ov := rep.Steps.Total().Virtual, rep.Breakdown.Total().Virtual; sv != ov {
		return violation(fmt.Sprintf("steps virtual %v != op virtual %v", sv, ov))
	}
	return nil
}

func (g *groupInstance) layers(ctx context.Context, _ []span, out map[string]float64) error {
	g.steps.emit(out)

	// One op is one pass over the pool: its counts are the per-op counts.
	g.store.EvictAll()
	ops0, bytes0 := g.store.ReadStats()
	rep, err := g.run(ctx)
	if err != nil {
		return err
	}
	if err := g.check(rep); err != nil {
		return err
	}
	ops1, bytes1 := g.store.ReadStats()
	var cand, total int
	for _, pr := range rep.Pairs {
		cand += pr.Result.CandidateChunks
		total += pr.Result.TotalChunks
	}
	out["op_virtual_ms"] = ms(rep.Breakdown.Total().Virtual)
	out["engine.steps_virtual_ms"] = ms(rep.Steps.Total().Virtual)
	out["compare.group_read_ops"] = float64(rep.ReadOps)
	out["compare.group_read_bytes"] = float64(rep.ReadBytes)
	out["stream.bytes_read_per_op"] = float64(rep.BytesRead)
	out["stream.read_retries"] = float64(rep.ReadRetries)
	out["stream.ring_fallbacks"] = float64(rep.RingFallbacks)
	out["pfs.read_ops_per_op"] = float64(ops1 - ops0)
	out["pfs.read_bytes_per_op"] = float64(bytes1 - bytes0)
	out["merkle.candidate_frac"] = float64(cand) / float64(total)
	if rep.ReadRetries != 0 || rep.RingFallbacks != 0 {
		return violation(fmt.Sprintf("clean store, yet %d read retries and %d ring fallbacks", rep.ReadRetries, rep.RingFallbacks))
	}
	return probePool(ctx, g.planeEnv, g.pool, out)
}
