package compare

import (
	"context"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/errbound"
	"repro/internal/metrics"
	"repro/internal/pfs"
	"repro/internal/stream"
)

// hostCompareModel prices the AllClose baseline's vectorized host-side
// comparison: memory-bound numpy kernels, no device, no kernel launches.
func hostCompareModel() device.Model {
	return device.Model{
		Name:                "host",
		HashBytesPerSec:     2e9,
		CompareBytesPerSec:  4e9,
		TransferBytesPerSec: 20e9,
		NodeHashesPerSec:    1e7,
	}
}

// CompareDirect is the optimized element-wise baseline of §3.2.2: every
// byte of both checkpoints is streamed from the PFS through the async I/O
// pipeline and compared within ε on the device, reporting the indices of
// all divergent elements. Unlike the Merkle method it needs no metadata
// but must always read everything, regardless of the error bound. Its
// engine plan is the Merkle plan minus stage 1:
// open → plan-sweep → stream-verify → report.
func CompareDirect(ctx context.Context, store *pfs.Store, nameA, nameB string, opts Options) (*Result, error) {
	st, err := newPairState(store, nil, nameA, nameB, opts, "direct")
	if err != nil {
		return nil, err
	}
	// The sweep has no stage 1 to bound what a missing chunk could hide:
	// it is never degraded.
	st.wrap, st.degrade = "direct", false
	var p engine.Plan
	st.appendTo(&p, "plan-sweep", st.stepPlanSweep, p.Add(engine.StepSetup, "open-checkpoints", st.ms.open))
	return st.runPlan(ctx, &p)
}

// stepPlanSweep builds one whole-checkpoint plan of contiguous slice-sized
// jobs spanning every selected field, so the sequential sweep pays the
// batch latency once.
func (st *pairState) stepPlanSweep(ctx context.Context, x *engine.Exec) error {
	ra, rb := st.ms.Readers[0], st.ms.Readers[1]
	st.plan = stream.NewPlan(ra.File(), rb.File())
	for fi, f := range st.ms.fields {
		if !st.ms.selected[fi] {
			continue
		}
		eltSize := int64(f.DType.Size())
		fb := f.Bytes()
		chunkSize := int64(st.ms.opts.SliceBytes)
		baseA := ra.FieldFileOffset(fi)
		baseB := rb.FieldFileOffset(fi)
		for off := int64(0); off < fb; off += chunkSize {
			n := min(chunkSize, fb-off)
			st.plan.Add(len(st.refs), 0, baseA+off, 1, baseB+off, int(n))
			// The sweep has no Merkle chunk notion.
			st.refs = append(st.refs, jobRef{field: fi, chunk: -1, base: off / eltSize})
		}
		st.res.TotalElements += f.Count
	}
	return st.fieldHashers()
}

// CompareAllClose is the naive baseline of §3.2.1 (numpy.allclose with
// atol=ε, rtol=0): both checkpoints are read in full with plain blocking
// sequential I/O (no async overlap) and compared element-wise on the host.
// It answers only whether ANY element exceeds the bound — it cannot say
// where — which is why Result.Diffs stays empty. Its plan is
// open → read-compare → report, with the context checked between fields.
func CompareAllClose(ctx context.Context, store *pfs.Store, nameA, nameB string, opts Options) (bool, *Result, error) {
	st, err := newPairState(store, nil, nameA, nameB, opts, "allclose")
	if err != nil {
		return false, nil, err
	}
	allWithin := true
	var p engine.Plan
	open := p.Add(engine.StepSetup, "open-checkpoints", st.ms.open)
	p.Add(engine.StepReadFull, "read-compare", func(ctx context.Context, x *engine.Exec) error {
		ok, err := st.allCloseFields(ctx, x)
		if err != nil {
			return err
		}
		allWithin = ok
		return nil
	}, open)
	res, err := st.runPlan(ctx, &p)
	if err != nil {
		return false, nil, err
	}
	return allWithin, res, nil
}

// allCloseFields runs the blocking per-field read + host compare loop of
// the AllClose baseline.
func (st *pairState) allCloseFields(ctx context.Context, x *engine.Exec) (bool, error) {
	sw := metrics.NewStopwatch()
	ra, rb := st.ms.Readers[0], st.ms.Readers[1]
	model := st.ms.store.Model()
	sharers := st.ms.store.Sharers()
	hostModel := hostCompareModel()

	allWithin := true
	for fi, f := range st.ms.fields {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		if !st.ms.selected[fi] {
			continue
		}
		hasher, err := st.ms.opts.hasherFor(f.DType)
		if err != nil {
			return false, err
		}
		// Blocking sequential reads of both fields, no overlap: the read
		// cost of A and B stack (numpy reads an array at a time).
		da, costA, err := ra.ReadField(fi)
		if err != nil {
			return false, err
		}
		db, costB, err := rb.ReadField(fi)
		if err != nil {
			return false, err
		}
		var cost pfs.Cost
		cost.Add(costA)
		cost.Add(costB)
		st.res.BytesRead += cost.TotalBytes()
		readV := model.SerialReadTime(cost, sharers)
		st.res.Breakdown.AddVirtual(metrics.PhaseRead, readV)
		st.res.Breakdown.AddWall(metrics.PhaseRead, sw.Lap())

		// Vectorized full-array comparison on the host (numpy computes
		// the whole boolean array; there is no early exit).
		var ok bool
		if st.ms.opts.RelEpsilon > 0 {
			ok, err = errbound.AllCloseRel(da, db, f.DType, st.ms.opts.Epsilon, st.ms.opts.RelEpsilon)
		} else {
			ok, err = hasher.AllClose(da, db)
		}
		if err != nil {
			return false, err
		}
		if !ok {
			allWithin = false
		}
		st.res.TotalElements += f.Count
		compV := hostModel.CompareTime(f.Bytes())
		st.res.Breakdown.AddVirtual(metrics.PhaseCompareDirect, compV)
		st.res.Breakdown.AddWall(metrics.PhaseCompareDirect, sw.Lap())
		x.AddVirtual(readV + compV)
	}
	if !allWithin {
		st.res.DiffCount = -1 // unknown count: allclose only answers the boolean
	}
	return allWithin, nil
}
