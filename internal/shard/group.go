package shard

import (
	"context"
	"fmt"

	"repro/internal/compare"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/pfs"
)

// GroupCompare compares N runs' checkpoints as one sharded group: member
// metadata loads once, every topology pair's tree diff runs from the
// in-memory trees, and the union of all pairs' divergent subtrees is
// executed across cfg.Workers workers under the budget/stealing regime.
// Member 0 is the baseline. The per-pair Results are bit-identical —
// diffs, verdicts, chunk accounting — to compare.GroupCompare over the
// same inputs; Stats reports the scale-out execution itself.
func GroupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology compare.Topology, cfg Config, opts compare.Options) (*compare.GroupReport, *Stats, error) {
	return groupCompare(ctx, store, baseline, runs, topology, cfg, opts, "merkle-shard-group", "open-members")
}

// groupCompare is the one sharded planner. Stage 1 is the single-node
// planners' (compare.MemberSet: metadata once per member, gates, tree
// diffs per topology pair) and never leaves the coordinator; the sharded
// path diverges only at partition/execute, where every pair's divergent
// subtrees join ONE shared unit pool, so the worker fleet load-balances
// across pairs as well as within them.
func groupCompare(ctx context.Context, store *pfs.Store, baseline string, runs []string, topology compare.Topology, cfg Config, opts compare.Options, method, openLabel string) (*compare.GroupReport, *Stats, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, nil, err
	}
	cfg, err = cfg.normalized()
	if err != nil {
		return nil, nil, err
	}
	ms, err := compare.NewGroupSet(store, nil, baseline, runs, topology, opts, method)
	if err != nil {
		return nil, nil, err
	}
	r := &run{store: store, cfg: cfg, ms: ms}
	var p engine.Plan
	stage1 := ms.Stage1(&p, openLabel)
	part := p.Add(engine.StepPartition, "partition", r.stepPartition, stage1)
	exec := p.Add(engine.StepShardExecute, "shard-execute", r.stepExecute, part)
	p.Add(engine.StepReport, "report", ms.Report, exec)
	if err := ms.Execute(ctx, &p); err != nil {
		return nil, nil, err
	}
	return ms.Rep, &r.stats, nil
}

// stepPartition pools every pair's divergent subtrees into one unit list
// — the global chunk key space concatenates (pair, field) extents in
// topology order, every selected field contributing its full chunk count,
// divergent or not (that is what makes AssignBlock a faithful
// owner-computes baseline) — and runs the initial assignment over it. It is
// also where the budget meets the data: stage 2 reads chunks of the size
// the metadata was built at, whatever the options say, so the largest
// selected field's tree chunk is what one chunk pair must fit the budget
// with and what the workers' window is a whole multiple of.
func (r *run) stepPartition(ctx context.Context, x *engine.Exec) error {
	ms := r.ms
	chunk := 0
	for pi, pr := range ms.Pairs {
		ra := ms.Readers[pr[0]]
		for fi, fm := range ms.Metas[pr[0]].Fields {
			if !ms.Selected(fi) {
				continue
			}
			chunk = max(chunk, fm.Tree.ChunkSize())
			r.addUnits(pi, fi, fm.Tree, ms.Cands[pi][fi], ra.FieldFileOffset(fi))
			r.totalChunks += int64(fm.Tree.NumChunks())
		}
	}
	if chunk > 0 {
		r.window = int(r.cfg.Budget/int64(2*chunk)) * chunk
		if r.window == 0 {
			return fmt.Errorf("shard: budget %d below one chunk pair (%d bytes)", r.cfg.Budget, 2*chunk)
		}
	}
	r.assign()
	return nil
}

// stepExecute fans the pooled units out over the workers and charges the
// resulting makespan as the overlapped stage-2 time — the sharded analogue
// of the single-node pipeline time.
func (r *run) stepExecute(ctx context.Context, x *engine.Exec) error {
	sw := metrics.NewStopwatch()
	if err := r.execute(ctx); err != nil {
		return err
	}
	rep := r.ms.Rep
	for w := range r.workers {
		read := r.workers[w].read()
		rep.BytesRead += read.BytesRead
		rep.ReadRetries += read.ReadRetries
	}
	rep.PipelineVirtual = r.stats.MakespanVirtual
	rep.Breakdown.AddVirtual(metrics.PhaseCompareDirect, r.stats.MakespanVirtual)
	rep.Breakdown.AddWall(metrics.PhaseCompareDirect, sw.Lap())
	x.AddVirtual(r.stats.MakespanVirtual)
	return nil
}
