package shard

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compare"
	"repro/internal/mpi"
)

// workerState is one worker's run-local state: its stage 2 — compare's,
// cut to the budget's window — and the account of what it ran. The
// coordinator reads the account after the join; it is the one source of
// per-worker statistics.
type workerState struct {
	stage2 *compare.Stage2

	units         int
	ioVirtual     time.Duration
	compVirtual   time.Duration
	bytesRead     int64
	retries       int
	ringFallbacks int
	peakInFlight  int64
	died          bool
}

// workerLoop is one worker goroutine: drain the own deque head-first,
// steal batches from the most-loaded peer's tail when idle (if stealing
// is on), execute each unit under the buffer budget, and stream verdicts
// to the coordinator. Unit take-and-execute turns are serialized by the
// run's virtual-time gate, so the schedule is a deterministic function
// of the model costs. The closing done frame is sent on every exit path
// — success, cancellation, error, or chaos death — so the coordinator's
// receiver always terminates.
func (r *run) workerLoop(ctx context.Context, w int, rank *mpi.Rank) (err error) {
	ws := &r.workers[w]
	defer func() {
		done := &DoneMsg{Worker: int64(w)}
		if ws.died {
			done.Died = 1
		}
		if serr := rank.Send(0, shardTag, EncodeDone(done)); serr != nil && err == nil {
			err = serr
		}
	}()
	defer r.gate.exit(w)
	for {
		if gerr := r.gate.enter(ctx, w); gerr != nil {
			return gerr
		}
		seq, ok := r.dq.Pop(w)
		if !ok && r.cfg.Stealing {
			seq, ok = r.dq.Steal(w)
		}
		if !ok {
			return nil
		}
		if r.cfg.Chaos.Enabled && w == r.cfg.Chaos.Worker && ws.units >= r.cfg.Chaos.AfterUnits {
			// Chaos death: the in-flight unit goes back on the deque —
			// stealable by peers, drained by the coordinator as a last
			// resort — and the worker exits without a verdict for it, so
			// the unit's eventual verdict is recorded exactly once.
			r.dq.Push(w, seq)
			ws.died = true
			return nil
		}
		v, cost, uerr := r.executeUnit(ctx, ws, seq)
		r.gate.leave(w, cost)
		if uerr != nil {
			return uerr
		}
		if serr := rank.Send(0, shardTag, EncodeVerdict(v)); serr != nil {
			return serr
		}
	}
}

// executeUnit runs stage 2 for one work unit — one call into the
// planners' shared pipeline, in windows the budget sized — and returns its
// verdict and its virtual cost. All pricing is virtual-clock model time —
// reads at their home target's contention factor, compute on the device
// model — never wall time.
func (r *run) executeUnit(ctx context.Context, ws *workerState, seq int64) (*VerdictMsg, time.Duration, error) {
	u := &r.units[seq]
	uv, err := ws.stage2.Verify(ctx, u.pair, u.field, u.chunks)
	if err != nil {
		return nil, 0, fmt.Errorf("shard: unit %d: %w", seq, err)
	}
	ws.units++
	ws.ioVirtual += uv.IOVirtual
	ws.compVirtual += uv.ComputeVirtual
	ws.bytesRead += uv.BytesRead
	ws.retries += uv.ReadRetries
	ws.ringFallbacks += uv.RingFallbacks
	// Depth 1: one window is all a worker ever holds.
	ws.peakInFlight = max(ws.peakInFlight, uv.PeakWindowBytes)
	return &VerdictMsg{
		Seq: seq, Pair: int64(u.pair), Field: int64(u.field),
		Changed: int64(uv.Changed), Unverified: int64(uv.Unverified), Diffs: uv.Diffs,
	}, uv.IOVirtual + uv.ComputeVirtual, nil
}
