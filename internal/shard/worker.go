package shard

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compare"
)

// workerState is one simulated worker: its stage 2 — compare's, cut to the
// budget's window, made when its first unit arrives (a fleet larger than
// the unit list is mostly workers that never run one) — and the account of
// what it ran, the one source of per-worker statistics and of its virtual
// clock.
type workerState struct {
	stage2 *compare.Stage2

	units        int
	ioVirtual    time.Duration
	compVirtual  time.Duration
	peakInFlight int64
	// done marks a worker that left the schedule: out of work, or died.
	died, done bool
}

// clock is the worker's virtual time: the cost of every unit it ran.
func (ws *workerState) clock() time.Duration { return ws.ioVirtual + ws.compVirtual }

// read is what the worker's units read (nothing, for a worker that ran
// none).
func (ws *workerState) read() compare.Account {
	if ws.stage2 == nil {
		return compare.Account{}
	}
	return *ws.stage2.Cost()
}

// executeUnit runs stage 2 for one work unit — one call into the
// planners' shared pipeline, in windows the budget sized — charges its
// virtual cost to the worker and returns its verdict. All pricing is
// virtual-clock model time — reads at their home target's contention
// factor, compute on the device model — never wall time.
func (r *run) executeUnit(ctx context.Context, ws *workerState, seq int) (compare.UnitVerdict, error) {
	if ws.stage2 == nil {
		// Depth 1: a worker holds one window, so the budget bounds it.
		ws.stage2 = r.ms.NewStage2(r.window, 1)
	}
	u := &r.units[seq]
	uv, err := ws.stage2.Verify(ctx, u.pair, u.field, u.chunks)
	if err != nil {
		return uv, fmt.Errorf("shard: unit %d: %w", seq, err)
	}
	ws.units++
	ws.ioVirtual += uv.IOVirtual
	ws.compVirtual += uv.ComputeVirtual
	ws.peakInFlight = max(ws.peakInFlight, uv.PeakWindowBytes)
	return uv, nil
}
