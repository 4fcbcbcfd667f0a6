package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"context"

	"repro/internal/compare"
	"repro/internal/errbound"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// gauge tracks one worker's in-flight stage-2 buffer bytes and their
// high-water mark. It is atomic so the budget invariant can be asserted
// from outside the worker goroutine under the race detector.
type gauge struct {
	inflight atomic.Int64
	peak     atomic.Int64
}

func (g *gauge) acquire(n int64) {
	v := g.inflight.Add(n)
	for {
		p := g.peak.Load()
		if v <= p || g.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

func (g *gauge) release(n int64) { g.inflight.Add(-n) }

// Peak returns the high-water mark of in-flight bytes.
func (g *gauge) Peak() int64 { return g.peak.Load() }

// InFlight returns the current in-flight bytes.
func (g *gauge) InFlight() int64 { return g.inflight.Load() }

// workerState is one worker's run-local state: reused buffers, cached
// hashers, accumulated virtual clock and accounting.
type workerState struct {
	r  *run
	id int

	hashers    map[errbound.DType]*errbound.Hasher
	bufA, bufB []byte

	units       int
	ioVirtual   time.Duration
	compVirtual time.Duration
	bytesRead   int64
	gauge       gauge
	died        bool
}

func (ws *workerState) init(r *run, id int) {
	ws.r = r
	ws.id = id
	ws.hashers = make(map[errbound.DType]*errbound.Hasher)
}

// grow returns buf with at least n capacity, reusing the allocation.
func grow(buf []byte, n int64) []byte {
	if int64(cap(buf)) < n {
		return make([]byte, n)
	}
	return buf[:n]
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
		died := uint8(0)
		if ws.died {
			died = 1
		}
		done := &DoneMsg{
			Worker:       int64(w),
			Units:        int64(ws.units),
			Died:         died,
			IONanos:      int64(ws.ioVirtual),
			CompNanos:    int64(ws.compVirtual),
			BytesRead:    ws.bytesRead,
			PeakInFlight: ws.gauge.Peak(),
		}
		done.Steals, done.StolenUnits = r.dq.StealStatsOf(w)
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
		io0, comp0 := ws.ioVirtual, ws.compVirtual
		v, uerr := r.executeUnit(ctx, ws, r.units[seq])
		r.gate.leave(w, (ws.ioVirtual-io0)+(ws.compVirtual-comp0))
		if uerr != nil {
			return uerr
		}
		if serr := rank.Send(0, shardTag, EncodeVerdict(v)); serr != nil {
			return serr
		}
	}
}

// executeUnit runs stage 2 for one work unit: stream its candidate
// chunks in budget-bounded batches, verify element-wise within ε, and
// summarize into a verdict. All pricing is virtual-clock model time —
// reads at the unit's home-target contention factor, compute on the
// device model — never wall time.
func (r *run) executeUnit(ctx context.Context, ws *workerState, u *UnitMsg) (*VerdictMsg, error) {
	dtype := errbound.DType(u.DType)
	hasher := ws.hashers[dtype]
	if hasher == nil {
		h, err := r.opts.HasherFor(dtype)
		if err != nil {
			return nil, err
		}
		ws.hashers[dtype] = h
		hasher = h
	}
	v := &VerdictMsg{Seq: u.Seq, Pair: u.Pair, Field: u.Field, Worker: int64(ws.id)}
	i := 0
	for i < len(u.Chunks) {
		// Batch greedily under the budget: both sides of every chunk in
		// the batch are in flight at once, so the batch closes when one
		// more chunk would push 2×bytes past Budget. Budget ≥ 2×chunk
		// (validated) guarantees progress.
		j, batchBytes := i, int64(0)
		for j < len(u.Chunks) {
			l := u.Chunks[j].Len
			if j > i && 2*(batchBytes+l) > r.cfg.Budget {
				break
			}
			batchBytes += l
			j++
		}
		if err := r.runBatch(ctx, ws, hasher, u, i, j, batchBytes, v); err != nil {
			return nil, err
		}
		i = j
	}
	ws.units++
	return v, nil
}

// runBatch reads and verifies chunks [i, j) of the unit as one in-flight
// batch. Under Options.Degrade, unreadable or integrity-failing chunks
// are excluded from diffing and counted unverified instead of failing
// the worker; without it any read error (after retries) aborts.
func (r *run) runBatch(ctx context.Context, ws *workerState, hasher *errbound.Hasher, u *UnitMsg, i, j int, batchBytes int64, v *VerdictMsg) error {
	pf := &r.files[u.Pair]
	model := r.store.Model()
	sharers := r.store.TargetSharers(int(u.Target))

	need := 2 * batchBytes
	ws.gauge.acquire(need)
	defer ws.gauge.release(need)
	ws.bufA = grow(ws.bufA, batchBytes)
	ws.bufB = grow(ws.bufB, batchBytes)

	var cost pfs.Cost
	var backoff time.Duration
	var comp time.Duration
	leaves := batchLeaves{hasher: hasher, pf: pf, u: u, cost: &cost, v: v}
	off := int64(0)
	for k := i; k < j; k++ {
		cr := &u.Chunks[k]
		a := ws.bufA[off : off+cr.Len]
		b := ws.bufB[off : off+cr.Len]
		off += cr.Len

		okA, errA := r.readChunk(ctx, pf.fA, a, cr.OffA, &cost, &backoff, v)
		if errA != nil {
			return errA
		}
		okB, errB := r.readChunk(ctx, pf.fB, b, cr.OffB, &cost, &backoff, v)
		if errB != nil {
			return errB
		}
		if !okA || !okB {
			v.Unverified++
			continue
		}
		// The kernel body shared with the single-node planners: integrity
		// rung (a failing side gets one re-read and, still failing, reaches
		// the kernel nil), ε-compare, indices appended to the unit's
		// verdict.
		if r.opts.Degrade {
			a, b = leaves.checked(ctx, k, compare.SideA, a), leaves.checked(ctx, k, compare.SideB, b)
		}
		job := compare.ChunkJob{Hasher: hasher, A: a, B: b, Base: cr.Index * u.ChunkElems}
		diffs, verdict, err := job.Verify(v.Diffs)
		if err != nil {
			return fmt.Errorf("shard: unit %d chunk %d: %w", u.Seq, cr.Index, err)
		}
		v.Diffs = diffs
		switch verdict {
		case compare.ChunkUnverified:
			// Untrusted bytes must produce neither a false divergence nor a
			// false match; the chunk still costs compare time.
			v.Unverified++
			comp += r.opts.Device.CompareRateTime(cr.Len)
		case compare.ChunkChanged:
			v.Changed++
		}
	}

	io := model.LatencyTerm(cost) + model.ScatteredBandwidthTerm(cost, sharers) + backoff
	comp += r.opts.Device.KernelLaunch +
		r.opts.Device.TransferTime(2*batchBytes) +
		r.opts.Device.CompareRateTime(batchBytes)
	v.Ops += int64(cost.Ops)
	v.CachedOps += int64(cost.CachedOps)
	v.Bytes += cost.Bytes
	v.CachedBytes += cost.CachedBytes
	v.BytesRead += cost.TotalBytes()
	v.IONanos += int64(io)
	v.CompNanos += int64(comp)
	ws.ioVirtual += io
	ws.compVirtual += comp
	ws.bytesRead += cost.TotalBytes()
	return nil
}

// readChunk reads one chunk side under the options' retry policy. It
// returns ok=false (and no error) when the read ultimately failed but
// degradation allows the comparison to continue without the chunk.
func (r *run) readChunk(ctx context.Context, f *pfs.File, p []byte, fileOff int64, cost *pfs.Cost, backoff *time.Duration, v *VerdictMsg) (bool, error) {
	attempts := 0
	bo, err := r.opts.Retry.Do(ctx, func(attempt int) error {
		if attempt > 0 {
			attempts++
		}
		n, c, rerr := f.ReadAtCtx(ctx, p, fileOff)
		cost.Add(c)
		if rerr == nil && n != len(p) {
			rerr = fmt.Errorf("shard: short read %d of %d at %d", n, len(p), fileOff)
		}
		return rerr
	})
	*backoff += bo
	v.Retries += int64(attempts)
	if err == nil {
		return true, nil
	}
	if cerr := ctx.Err(); cerr != nil {
		return false, cerr
	}
	if r.opts.Degrade {
		return false, nil
	}
	return false, err
}

// batchLeaves is the integrity rung for one batch: each side's bytes must
// re-hash to the leaf digest the unit was cut from. Re-reads are charged to
// the batch's cost and counted on the verdict.
type batchLeaves struct {
	hasher *errbound.Hasher
	pf     *pairFiles
	u      *UnitMsg
	cost   *pfs.Cost
	v      *VerdictMsg
}

// checked returns one side of chunk i of the unit once it verifies —
// re-read in place if it must be — or nil.
func (l *batchLeaves) checked(ctx context.Context, i, side int, data []byte) []byte {
	cr := &l.u.Chunks[i]
	f, off, want := l.pf.fA, cr.OffA, cr.DigestA
	if side == compare.SideB {
		f, off, want = l.pf.fB, cr.OffB, cr.DigestB
	}
	ok, reread, cost := compare.VerifyLeaf(ctx, l.hasher, data, want, f, off)
	l.cost.Add(cost)
	if reread {
		l.v.Rereads++
	}
	if !ok {
		return nil
	}
	return data
}
