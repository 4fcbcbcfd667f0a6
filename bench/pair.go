package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/compare"
	"repro/internal/metrics"
	"repro/internal/murmur3"
	"repro/internal/pfs"
	"repro/internal/service"
	"repro/internal/shard"
)

// poolVariants is how many perturbed runs a compare workload walks
// round-robin against the base run.
const poolVariants = 3

// stepMetric maps an engine step kind to its per-layer metric.
var stepMetric = map[string]string{
	"setup":         "engine.setup_ms",
	"load-metadata": "engine.load_metadata_ms",
	"tree-diff":     "engine.tree_diff_ms",
	"coalesce":      "engine.coalesce_ms",
	"stream-verify": "engine.stream_verify_ms",
	"report":        "engine.report_ms",
}

// stepStats accumulates the engine's per-step wall time over traced ops
// of a one-client workload.
type stepStats struct {
	ops         int
	wallByKind  map[string]time.Duration
	unaccounted time.Duration
}

// record adds one op: the span of the public call and the steps it ran,
// and lays the steps out as child spans of the call.
func (s *stepStats) record(tr *tracer, call int, callWall time.Duration, steps metrics.StepSpans) {
	var off time.Duration
	if s.wallByKind == nil {
		s.wallByKind = make(map[string]time.Duration)
	}
	s.ops++
	for _, st := range steps {
		s.wallByKind[st.Kind] += st.Span.Wall
		tr.child(st.Kind+":"+st.Label, "engine", call, off, st.Span.Wall)
		off += st.Span.Wall
	}
	s.unaccounted += callWall - off
}

func (s *stepStats) emit(out map[string]float64) {
	if s.ops == 0 {
		return
	}
	for kind, name := range stepMetric {
		out[name] = ms(s.wallByKind[kind]) / float64(s.ops)
	}
	out["engine.unaccounted_ms"] = ms(s.unaccounted) / float64(s.ops)
}

// planeEnv is the in-process system under test: one plane, one session,
// one store.
type planeEnv struct {
	plane *service.Plane
	sess  *service.Session
	store *pfs.Store
}

func newPlaneEnv(e *env, dir string) (*planeEnv, error) {
	store, err := pfs.NewStore(dir, pfs.LustreModel())
	if err != nil {
		return nil, err
	}
	plane := service.New(service.Config{Workers: e.procs})
	return &planeEnv{plane: plane, sess: plane.Open("bench"), store: store}, nil
}

// pairInstance compares the pool's base run against one variant per op.
type pairInstance struct {
	*planeEnv
	pool  *pool
	steps stepStats
	// withShard adds the sharded-comparison guard probe.
	withShard bool
}

func setupPairSparse(ctx context.Context, e *env, dir string) (instance, error) {
	return setupPair(ctx, e, dir, sparseShape, false)
}

func setupPairDense(ctx context.Context, e *env, dir string) (instance, error) {
	return setupPair(ctx, e, dir, denseShape, true)
}

func setupPair(ctx context.Context, e *env, dir string, s shape, withShard bool) (instance, error) {
	pe, p, err := setupPool(ctx, e, filepath.Join(dir, "store"), s)
	if err != nil {
		return nil, err
	}
	return &pairInstance{planeEnv: pe, pool: p, withShard: withShard}, nil
}

// setupPool generates a compare workload's inputs and captures them on a
// fresh plane.
func setupPool(ctx context.Context, e *env, dir string, s shape) (*planeEnv, *pool, error) {
	if e.smoke {
		s = s.smoke()
	}
	pe, err := newPlaneEnv(e, dir)
	if err != nil {
		return nil, nil, err
	}
	p, err := capturePool(ctx, pe.sess, pe.store, generate(s, e.seed, poolVariants))
	if err != nil {
		_ = pe.plane.Close() // the capture error is the one to report
		return nil, nil, err
	}
	return pe, p, nil
}

func (p *pairInstance) clients() int           { return 1 }
func (p *pairInstance) childPID() int          { return 0 }
func (p *pairInstance) digest() murmur3.Digest { return p.pool.digest }
func (p *pairInstance) bytesPerOp() int64      { return 2 * p.pool.shape.bytesPerRun() }
func (p *pairInstance) close() error           { return p.plane.Close() }

func (p *pairInstance) op(ctx context.Context, _, i int, tr *tracer) (time.Duration, error) {
	k := 1 + i%poolVariants
	p.store.EvictAll() // every comparison starts cold on the virtual clock
	root := tr.begin("op", "bench", i, -1)
	call := tr.begin("Session.Compare", "service", i, root)
	t0 := time.Now()
	res, err := p.sess.Compare(ctx, p.store, p.pool.names[0], p.pool.names[k], p.pool.opts)
	wall := time.Since(t0)
	tr.end(call)
	tr.end(root)
	if err != nil {
		return 0, err
	}
	if err := checkPair(res, p.pool.diffs[k]); err != nil {
		return 0, fmt.Errorf("r0 vs r%d: %w", k, err)
	}
	if tr != nil {
		p.steps.record(tr, call, wall, res.Steps)
	}
	return wall, nil
}

// checkPair holds a pair result against the element-wise oracle and the
// engine's own accounting: the steps' virtual time is the op's.
func checkPair(res *compare.Result, want int64) error {
	if res.DiffCount != want {
		return fmt.Errorf("DiffCount %d, oracle %d", res.DiffCount, want)
	}
	if got := service.ResultVerdict(res, nil); (want > 0) != (got == service.VerdictDivergent) {
		return fmt.Errorf("verdict %v with %d oracle diffs", got, want)
	}
	if sv, ov := res.Steps.Total().Virtual, res.VirtualElapsed(); sv != ov {
		return violation(fmt.Sprintf("steps virtual %v != op virtual %v", sv, ov))
	}
	return nil
}

func (p *pairInstance) layers(ctx context.Context, _ []span, out map[string]float64) error {
	p.steps.emit(out)

	// One pass over the pool gives the deterministic per-op counts.
	var virt, stepsVirt time.Duration
	var bytesRead, readOps, readBytes int64
	var retries, fallbacks, cand, total int
	for k := 1; k <= poolVariants; k++ {
		p.store.EvictAll()
		ops0, bytes0 := p.store.ReadStats()
		res, err := p.sess.Compare(ctx, p.store, p.pool.names[0], p.pool.names[k], p.pool.opts)
		if err != nil {
			return err
		}
		if err := checkPair(res, p.pool.diffs[k]); err != nil {
			return err
		}
		ops1, bytes1 := p.store.ReadStats()
		virt += res.VirtualElapsed()
		stepsVirt += res.Steps.Total().Virtual
		bytesRead += res.BytesRead
		readOps += ops1 - ops0
		readBytes += bytes1 - bytes0
		retries += res.ReadRetries
		fallbacks += res.RingFallbacks
		cand += res.CandidateChunks
		total += res.TotalChunks
	}
	const n = poolVariants
	out["op_virtual_ms"] = ms(virt) / n
	out["engine.steps_virtual_ms"] = ms(stepsVirt) / n
	out["stream.bytes_read_per_op"] = float64(bytesRead) / n
	out["stream.read_retries"] = float64(retries)
	out["stream.ring_fallbacks"] = float64(fallbacks)
	out["pfs.read_ops_per_op"] = float64(readOps) / n
	out["pfs.read_bytes_per_op"] = float64(readBytes) / n
	out["merkle.candidate_frac"] = float64(cand) / float64(total)
	if retries != 0 || fallbacks != 0 {
		return violation(fmt.Sprintf("clean store, yet %d read retries and %d ring fallbacks", retries, fallbacks))
	}

	if err := probePool(ctx, p.planeEnv, p.pool, out); err != nil {
		return err
	}
	if p.withShard {
		return probeShard(ctx, p.planeEnv, p.pool, out)
	}
	return nil
}

// probeShard runs the same pair sharded over four simulated workers: a
// regression guard for the stage-2 unification, not a workload.
func probeShard(ctx context.Context, pe *planeEnv, p *pool, out map[string]float64) error {
	cfg := shard.Config{Workers: 4, Stealing: true}
	var walls []time.Duration
	for r := 0; r < probeReps; r++ {
		pe.store.EvictAll()
		t0 := time.Now()
		res, stats, err := pe.sess.ShardCompare(ctx, pe.store, p.names[0], p.names[1], cfg, p.opts)
		walls = append(walls, time.Since(t0))
		if err != nil {
			return fmt.Errorf("shard probe: %w", err)
		}
		if res.DiffCount != p.diffs[1] {
			return fmt.Errorf("shard probe: DiffCount %d, oracle %d", res.DiffCount, p.diffs[1])
		}
		out["shard.makespan_virtual_ms"] = ms(stats.MakespanVirtual)
		out["shard.steals"] = float64(stats.Steals)
	}
	var err error
	out["shard.wall_ms_p50"], err = medianOf(walls, time.Millisecond)
	return err
}
