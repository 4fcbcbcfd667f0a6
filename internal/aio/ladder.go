package aio

import (
	"context"
	"errors"
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
	// Cost is the storage cost of the last read issued.
	Cost pfs.Cost
	// IO is the virtual time to charge: the last read on each rung taken
	// (failed ones included — a dead member still cost its attempt) plus
	// the retry policy's backoff.
	IO time.Duration
	// Retries counts reads re-issued under the retry policy.
	Retries int
	// FellBack reports that the fresh-ring rung served the read.
	FellBack bool
}

// ReadRetried is the ladder's first rung alone: the batches are read
// through the backend — two batches as one overlapped pair when it is a
// PairReader, serially otherwise — and the whole read is re-issued on
// Transient errors under pol, whose backoff is charged to IO on the
// virtual clock (never slept). Other errors return at once, wrapped with
// the file they came from but matchable by kind; a spent budget comes back
// Permanent (retry.Exhausted).
func ReadRetried(ctx context.Context, be Backend, pol retry.Policy, batches ...Batch) (LadderRead, error) {
	var out LadderRead
	backoff, err := pol.Do(ctx, func(attempt int) error {
		out.Retries = attempt
		var rerr error
		out.Cost, out.IO, rerr = readOnce(ctx, be, batches)
		return rerr
	})
	out.IO += backoff
	return out, err
}

// ReadLadder is every read rung of the degradation ladder, for the one
// stage-2 reader (the stream pipeline's windows): ReadRetried, then — only when the shared ring reports
// ErrRingClosed — exactly one fresh-ring Legacy read of the same batches,
// so a torn-down engine costs the spawn-per-batch price instead of the
// comparison. Anything else, a canceled context included, is never
// degraded: the error returns as it came. This is the one place
// production code constructs a Legacy.
func ReadLadder(ctx context.Context, be Backend, pol retry.Policy, batches ...Batch) (LadderRead, error) {
	out, err := ReadRetried(ctx, be, pol, batches...)
	if err == nil || !errors.Is(err, ErrRingClosed) {
		return out, err
	}
	cost, io, err := readOnce(ctx, Legacy{}, batches)
	out.IO += io
	if err == nil {
		out.Cost, out.FellBack = cost, true
	}
	return out, err
}

// readOnce issues the batches once.
func readOnce(ctx context.Context, be Backend, batches []Batch) (pfs.Cost, time.Duration, error) {
	if pr, ok := be.(PairReader); ok && len(batches) == 2 {
		a, b := batches[0], batches[1]
		cost, io, err := pr.ReadBatchPair(ctx, a.File, b.File, a.Reqs, b.Reqs)
		if err != nil {
			err = fmt.Errorf("aio: read %s and %s: %w", a.File.Name(), b.File.Name(), err)
		}
		return cost, io, err
	}
	var cost pfs.Cost
	var io time.Duration
	for _, b := range batches {
		c, t, err := be.ReadBatch(ctx, b.File, b.Reqs)
		cost.Add(c)
		io += t
		if err != nil {
			return cost, io, fmt.Errorf("aio: read %s: %w", b.File.Name(), err)
		}
	}
	return cost, io, nil
}
