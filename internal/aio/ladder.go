package aio

import (
	"context"
	"fmt"
	"time"

	"repro/internal/pfs"
	"repro/internal/retry"
)

// Batch is one file's share of a stage-2 read.
type Batch struct {
	File *pfs.File
	Reqs []ReadReq
}

// LadderRead reports one climb of the read ladder.
type LadderRead struct {
	// Cost is the storage cost of the last pricing issued.
	Cost pfs.Cost
	// IO is the virtual time to charge: the last pricing (a failed one
	// included — a dead member still cost its attempt) plus the retry
	// policy's backoff.
	IO time.Duration
	// Retries counts pricings re-issued under the retry policy.
	Retries int
}

// ReadLadder is the read ladder's retry rung, for the one stage-2 reader
// (the stream pipeline's windows), run when a window is priced: one or two
// batches are priced through the backend — two as one overlapped pair when
// it is a PairPricer, one after the other otherwise — and the whole
// pricing is re-issued on Transient errors under pol, whose backoff is
// charged to IO on the virtual clock (never slept). Other errors, a
// canceled context among them, return at once, wrapped with the file they
// came from but matchable by kind; a spent budget comes back Permanent
// (retry.Exhausted). The degrade rung — one source at a time, a source
// still unreadable dropped — is the reader's (stream.Plan.Degrade).
func ReadLadder(ctx context.Context, be Backend, pol retry.Policy, batches ...Batch) (LadderRead, error) {
	var out LadderRead
	backoff, err := pol.Do(ctx, func(attempt int) error {
		out.Retries = attempt
		var rerr error
		out.Cost, out.IO, rerr = priceOnce(ctx, be, batches)
		return rerr
	})
	out.IO += backoff
	return out, err
}

// priceOnce prices one batch, or two as a pair, once.
func priceOnce(ctx context.Context, be Backend, batches []Batch) (pfs.Cost, time.Duration, error) {
	a := batches[0]
	if len(batches) == 1 {
		cost, io, err := be.Price(ctx, a.File, a.Reqs)
		if err != nil {
			err = fmt.Errorf("aio: read %s: %w", a.File.Name(), err)
		}
		return cost, io, err
	}
	b := batches[1]
	cost, io, err := pricePair(ctx, be, a.File, b.File, a.Reqs, b.Reqs)
	if err != nil {
		err = fmt.Errorf("aio: read %s and %s: %w", a.File.Name(), b.File.Name(), err)
	}
	return cost, io, err
}
